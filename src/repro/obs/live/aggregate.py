"""Windowed aggregation of the telemetry stream.

The :class:`LiveAggregator` is the bus subscriber that turns raw events
into everything the dashboard and the ``/metrics`` endpoint render:

* overall progress (hours done / total) and an ETA from the observed
  completion rate;
* one lane per worker: its hour block, hours completed, CPU seconds;
* per-failure-type running counts and a windowed per-hour rate series
  (the dashboard's sparklines);
* when detection is on, a compact SLO summary (per-side availability,
  error-budget consumption, burn rates) pulled from the horizon
  :class:`~repro.obs.horizon.slo.SLOEngine` through an injected
  provider, so ``/status`` answers the error-budget question without a
  second scrape of ``/slo``.

Thread-safety: ``update`` runs on the bus's drain thread while
``snapshot``/``to_registry`` run on the dashboard timer and HTTP server
threads, so all state sits behind one lock.  Wall-clock reads flow
through the injected ``clock`` (the runstore pattern).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs.live.events import FAILURE_FIELDS, HOUR_DONE
from repro.obs.metrics import MetricsRegistry


class WorkerLane:
    """Mutable progress state of one worker's shard."""

    __slots__ = (
        "worker", "hour_start", "hour_stop", "hours_done", "last_hour",
        "cpu_seconds", "elapsed_seconds", "done",
    )

    def __init__(self, worker: int) -> None:
        self.worker = worker
        self.hour_start: Optional[int] = None
        self.hour_stop: Optional[int] = None
        self.hours_done = 0
        self.last_hour: Optional[int] = None
        self.cpu_seconds = 0.0
        self.elapsed_seconds = 0.0
        self.done = False

    @property
    def hours_total(self) -> Optional[int]:
        """Hours in this lane's shard, when the range is known."""
        if self.hour_start is None or self.hour_stop is None:
            return None
        return self.hour_stop - self.hour_start

    def as_dict(self) -> Dict[str, Any]:
        """Snapshot view of the lane."""
        return {
            "worker": self.worker,
            "hour_start": self.hour_start,
            "hour_stop": self.hour_stop,
            "hours_done": self.hours_done,
            "hours_total": self.hours_total,
            "last_hour": self.last_hour,
            "cpu_seconds": self.cpu_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "done": self.done,
        }


class LiveAggregator:
    """Fold telemetry events into dashboard- and scrape-ready state."""

    def __init__(
        self,
        window_hours: int = 48,
        clock: Callable[[], float] = time.time,
        slo_provider: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> None:
        self.window_hours = window_hours
        self._clock = clock
        #: Optional :meth:`repro.obs.horizon.slo.SLOEngine.document`
        #: hook; when wired (detection on), :meth:`snapshot` carries a
        #: compact error-budget summary so ``/status`` and the dashboard
        #: surface burn without a second scrape.
        self._slo_provider = slo_provider
        self._lock = threading.Lock()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.hours_total: Optional[int] = None
        self.workers: Optional[int] = None
        self.engine: Optional[str] = None
        self.hours_done = 0
        self.transactions = 0
        self.failures: Dict[str, int] = {f: 0 for f in FAILURE_FIELDS}
        self._lanes: Dict[int, WorkerLane] = {}
        #: hour -> per-type counts for the sparkline window (pruned to
        #: the most recent ``window_hours`` completed hours).
        self._hour_counts: Dict[int, Dict[str, int]] = {}
        self.events_seen = 0

    # -- ingestion ------------------------------------------------------------

    def update(self, event: Dict[str, Any]) -> None:
        """Fold one event in (bus drain-thread context)."""
        kind = event.get("type")
        with self._lock:
            self.events_seen += 1
            if self.started_at is None:
                self.started_at = float(event.get("t") or self._clock())
            if kind == "run_start":
                self.hours_total = int(event.get("hours") or 0) or None
                self.workers = event.get("workers")
                self.engine = event.get("engine")
            elif kind == "shard_start":
                lane = self._lane(event)
                lane.hour_start = event.get("hour_start")
                lane.hour_stop = event.get("hour_stop")
            elif kind == HOUR_DONE:
                self._ingest_hour(event)
            elif kind == "shard_done":
                lane = self._lane(event)
                lane.done = True
                lane.cpu_seconds = float(event.get("cpu_seconds") or 0.0)
                lane.elapsed_seconds = float(
                    event.get("elapsed_seconds") or 0.0
                )
            elif kind == "run_done":
                self.finished_at = float(event.get("t") or self._clock())

    def _lane(self, event: Dict[str, Any]) -> WorkerLane:
        worker = int(event.get("worker") or 0)
        lane = self._lanes.get(worker)
        if lane is None:
            lane = self._lanes[worker] = WorkerLane(worker)
        return lane

    def _ingest_hour(self, event: Dict[str, Any]) -> None:
        hour = int(event.get("hour") or 0)
        lane = self._lane(event)
        lane.hours_done += 1
        lane.last_hour = hour
        self.hours_done += 1
        self.transactions += int(event.get("transactions") or 0)
        counts: Dict[str, int] = {}
        for field in FAILURE_FIELDS:
            value = int(event.get(field) or 0)
            self.failures[field] += value
            counts[field] = value
        counts["transactions"] = int(event.get("transactions") or 0)
        self._hour_counts[hour] = counts
        if len(self._hour_counts) > self.window_hours:
            del self._hour_counts[min(self._hour_counts)]

    # -- derived views --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A consistent, render-ready view of everything (locked copy)."""
        with self._lock:
            now = self._clock()
            reference = self.finished_at if self.finished_at else now
            elapsed = (
                reference - self.started_at if self.started_at else 0.0
            )
            eta = None
            if (
                self.hours_total
                and 0 < self.hours_done < self.hours_total
                and elapsed > 0
            ):
                rate = self.hours_done / elapsed
                eta = (self.hours_total - self.hours_done) / rate
            window = [
                self._hour_counts[h] for h in sorted(self._hour_counts)
            ]
            sparks: Dict[str, List[float]] = {}
            for field in FAILURE_FIELDS:
                sparks[field] = [
                    (c[field] / c["transactions"]) if c["transactions"] else 0.0
                    for c in window
                ]
            snap = {
                "engine": self.engine,
                "hours_total": self.hours_total,
                "hours_done": self.hours_done,
                "workers": self.workers,
                "transactions": self.transactions,
                "failures": dict(self.failures),
                "elapsed_seconds": elapsed,
                "eta_seconds": eta,
                "finished": self.finished_at is not None,
                "lanes": [
                    lane.as_dict()
                    for _, lane in sorted(self._lanes.items())
                ],
                "rate_window": sparks,
                "events_seen": self.events_seen,
            }
        # Outside the lock: the SLO engine locks itself, and nothing
        # here still touches aggregator state.
        snap["slo"] = self._slo_summary()
        return snap

    def _slo_summary(self) -> Optional[Dict[str, Any]]:
        """Compact error-budget block for the snapshot (None when off)."""
        if self._slo_provider is None:
            return None
        document = self._slo_provider()
        sides = document["sides"]
        return {
            "objective": document["objective"],
            "hours_folded": document["hours_folded"],
            "availability": {
                side: doc["availability"] for side, doc in sides.items()
            },
            "error_budget_consumed": {
                side: doc["error_budget_consumed"]
                for side, doc in sides.items()
            },
            "burn_rates": document["burn_rates"],
        }

    def to_registry(self) -> MetricsRegistry:
        """The live state as gauges, for the ``/metrics`` endpoint.

        A fresh registry per call: scrape-time state, not accumulation.
        """
        snap = self.snapshot()
        registry = MetricsRegistry()
        registry.gauge("live_hours_total").set(snap["hours_total"] or 0)
        registry.gauge("live_hours_done").set(snap["hours_done"])
        registry.gauge("live_transactions").set(snap["transactions"])
        registry.gauge("live_elapsed_seconds").set(snap["elapsed_seconds"])
        registry.gauge("live_finished").set(1.0 if snap["finished"] else 0.0)
        if snap["eta_seconds"] is not None:
            registry.gauge("live_eta_seconds").set(snap["eta_seconds"])
        for field, total in snap["failures"].items():
            registry.gauge("live_failures", type=field).set(total)
        for lane in snap["lanes"]:
            worker = str(lane["worker"])
            registry.gauge("live_worker_hours_done", worker=worker).set(
                lane["hours_done"]
            )
            if lane["cpu_seconds"]:
                registry.gauge("live_worker_cpu_seconds", worker=worker).set(
                    lane["cpu_seconds"]
                )
        return registry
