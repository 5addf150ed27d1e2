"""The telemetry bus: emitters on one side, a drain thread on the other.

Topology::

    worker 0 --\
    worker 1 ---> multiprocessing.Queue ---> drain thread ---> subscribers
    parent  --/                                                 (aggregator,
                                                                 spool file,
                                                                 dashboard)

Workers (and the parent itself, on the sequential path) hold a
:class:`QueueEmitter` installed process-wide via
:func:`repro.obs.runtime.set_emitter`; engine code reaches it as
``obs.emitter()`` and pays nothing when telemetry is off (the default
:class:`~repro.obs.runtime.NullEmitter`).

The queue is shared with forked worker processes by *inheritance*: the
parent parks it in a module-level global before the process pool is
created (:func:`TelemetryBus.start`), and :func:`inherited_emitter`
picks it up inside the child.  Without ``fork`` there is no pool: the
shards run in the parent, and each still installs
:func:`inherited_emitter` with its own worker index, so the same events
reach the same queue.

Emission must never perturb the simulation: emitters swallow queue
errors, carry no RNG state, and only ever *read* dataset counts.  The
dataset digest is therefore bit-identical with telemetry on or off --
the acceptance test of this whole subsystem.

Every record is a trace event (:func:`repro.obs.tracing.event_record`)
whose fields carry the emitting ``worker`` and its ``seq`` counter, so
the spool appends to a run's span trace as one ``trace.jsonl``.

Backpressure: the queue is *bounded* (:data:`DEFAULT_QUEUE_CAPACITY`)
and emitters put without blocking -- a stalled or slow consumer (hung
dashboard terminal, wedged drain thread) makes workers *drop* telemetry
events, never wait for it.  Drops are counted on the emitter
(:attr:`QueueEmitter.drops`) and in the process-local metrics registry
as ``live_events_dropped_total`` (worker registries merge into the
parent after the join, so the ``/metrics`` surface reports the fleet
total as ``repro_live_events_dropped_total``).
"""

from __future__ import annotations

import json
import multiprocessing
import queue as queue_module
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs import runtime
from repro.obs.tracing import event_record

#: Queue a forked worker inherits (set by the parent before the pool is
#: created, cleared on :meth:`TelemetryBus.stop`).
_WORKER_QUEUE = None

#: Bound on undrained telemetry events.  Sized for minutes of full-rate
#: emission: beyond it the consumer is not slow, it is gone, and
#: dropping beats blocking the simulation hot path.
DEFAULT_QUEUE_CAPACITY = 10_000

#: How long the drain thread blocks on an empty queue before re-checking
#: the stop flag.
_DRAIN_POLL_SECONDS = 0.1

#: Marker :meth:`TelemetryBus.stop` sends through the queue itself: the
#: queue is FIFO per putting process, so by the time the drain thread
#: sees it, every event the parent emitted beforehand has been
#: dispatched (a plain stop flag would race the queue's feeder thread
#: and drop just-emitted events).
_STOP_KIND = "__bus_stop__"


class QueueEmitter:
    """Process-local emitter writing events onto a shared queue.

    ``put`` should be non-blocking (``Queue.put_nowait``): when the
    bounded queue is full the event is dropped and counted rather than
    stalling the simulation (see the module docstring).
    """

    enabled = True

    def __init__(
        self,
        put: Callable[[Dict[str, Any]], None],
        worker: Optional[int] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self._put = put
        self.worker = worker
        self._clock = clock
        self._seq = 0
        #: Events dropped by this emitter (full queue / dead pipe).
        self.drops = 0

    def emit(self, kind: str, /, **fields) -> None:
        """Stamp and enqueue one event; never raises or blocks."""
        event = event_record(
            kind, self._clock(),
            {"worker": self.worker, "seq": self._seq, **fields},
        )
        self._seq += 1
        try:
            self._put(event)
        except (OSError, ValueError, queue_module.Full):
            # A telemetry hiccup (full queue, closed queue at teardown,
            # dead pipe) must never fail or slow the simulation it is
            # watching: count the drop and move on.
            self.drops += 1
            runtime.registry().counter("live_events_dropped_total").inc()


def inherited_emitter(worker: int):
    """The emitter a (possibly forked) worker process should install.

    Returns a :class:`QueueEmitter` bound to the parent's queue when one
    was parked before the fork, else the shared null emitter.
    """
    if _WORKER_QUEUE is None:
        return runtime.NULL_EMITTER
    return QueueEmitter(_WORKER_QUEUE.put_nowait, worker=worker)


class TelemetryBus:
    """Parent-side hub: owns the queue, the drain thread, the sinks.

    Lifecycle::

        bus = TelemetryBus(spool_path="spool.jsonl")
        bus.subscribe(aggregator.update)
        bus.start()           # installs the parent emitter, parks the
        ...                   # queue for forked workers, starts draining
        bus.stop()            # final drain, restore emitter, close file

    Subscribers are called from the drain thread, one event at a time,
    in arrival order; they must be fast and must not raise (a raising
    subscriber is detached and logged, the bus keeps going).
    """

    def __init__(
        self,
        spool_path: Optional[str] = None,
        clock: Callable[[], float] = time.time,
        maxsize: int = DEFAULT_QUEUE_CAPACITY,
    ) -> None:
        self.spool_path = spool_path
        self._clock = clock
        ctx_methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in ctx_methods else None
        )
        self.queue = self._ctx.Queue(maxsize)
        self._subscribers: List[Callable[[Dict[str, Any]], None]] = []
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._sink = None
        self._old_emitter = None
        self.events_seen = 0

    # -- wiring ---------------------------------------------------------------

    def subscribe(self, callback: Callable[[Dict[str, Any]], None]) -> None:
        """Register a per-event callback (drain-thread context)."""
        self._subscribers.append(callback)

    def emitter(self, worker: Optional[int] = None) -> QueueEmitter:
        """A new emitter publishing onto this bus's queue."""
        return QueueEmitter(
            self.queue.put_nowait, worker=worker, clock=self._clock
        )

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "TelemetryBus":
        """Open the sink, park the queue for workers, start draining."""
        global _WORKER_QUEUE
        if self.spool_path is not None:
            self._sink = open(self.spool_path, "w", encoding="utf-8")
        _WORKER_QUEUE = self.queue
        self._old_emitter = runtime.set_emitter(self.emitter())
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._drain_loop, name="repro-telemetry-drain", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Drain what is left, restore the emitter, close the sink."""
        global _WORKER_QUEUE
        if self._old_emitter is not None:
            runtime.set_emitter(self._old_emitter)
            self._old_emitter = None
        _WORKER_QUEUE = None
        try:
            # Non-blocking like every other put: on a full queue the
            # drain thread is woken by the stop flag instead, and any
            # backlog is taken synchronously below.
            self.queue.put_nowait({"type": _STOP_KIND})
        except (OSError, ValueError, queue_module.Full):
            self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._stop.set()
        # Worker events can still race the sentinel (their processes
        # flush on exit); take any stragglers synchronously.
        self._drain_remaining()
        if self._sink is not None:
            self._sink.flush()
            self._sink.close()
            self._sink = None
        self.queue.close()

    # -- draining -------------------------------------------------------------

    def _drain_loop(self) -> None:
        while not self._stop.is_set():
            try:
                event = self.queue.get(timeout=_DRAIN_POLL_SECONDS)
            except (queue_module.Empty, OSError, ValueError):
                continue
            if event.get("type") == _STOP_KIND:
                return
            self._dispatch(event)

    def _drain_remaining(self) -> None:
        while True:
            try:
                event = self.queue.get_nowait()
            except (queue_module.Empty, OSError, ValueError):
                return
            if event.get("type") == _STOP_KIND:
                continue
            self._dispatch(event)

    def _dispatch(self, event: Dict[str, Any]) -> None:
        self.events_seen += 1
        if self._sink is not None:
            try:
                self._sink.write(json.dumps(event, default=str) + "\n")
                self._sink.flush()
            except (OSError, ValueError) as exc:
                runtime.logger.warning("telemetry sink failed: %s", exc)
                self._sink = None
        for callback in list(self._subscribers):
            try:
                callback(event)
            except Exception as exc:
                runtime.logger.warning(
                    "telemetry subscriber %r detached: %s", callback, exc
                )
                self._subscribers.remove(callback)
