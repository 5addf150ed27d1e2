"""The hour-block driver: deterministic, hour-sharded simulation.

The fast engine's hour loop is embarrassingly parallel once every hour
draws from its own derived RNG stream (``fast-engine/hour/<h>``): a worker
process simulating hours ``[h0, h1)`` produces exactly the counts the
sequential engine would for those hours, because seed derivation depends
only on the master seed and the hour -- never on which process runs it or
what ran before.

:class:`BlockPool` is the one hour driver: simulation workers forked
once, the slot buffers they count into, and ``submit`` / ``result`` /
``close``.  :func:`run_block` is its one-block use: a batch month
(:meth:`~repro.world.simulator.MonthSimulator.run`) is the block
``[0, hours)``.  The serve daemon (:mod:`repro.serve.daemon`) keeps one
pool with two slots for its whole run and submits chunk k+1 into the
other slot before it persists chunk k, so simulation overlaps commit,
fold and checkpoint.

A block is sharded into contiguous hour ranges, worker ``i`` taking
shard ``i``; workers write their counts directly into the block's slot,
one anonymous shared mapping (:mod:`repro.world.sharedmem`), whose
views the parent hands on as the block's arrays -- no pickled count
arrays, no copy, no merge loop.  Every hour a shard simulates is
assigned in full, so a reused slot carries no counts of an earlier
block into a later one.

Determinism contract: for a given master seed the block's arrays are
bit-identical for *any* worker count -- ``--workers 1``, the in-process
fallback, and any pool width all digest equal.

Workers inherit the pool over ``fork``: it parks itself in
:data:`_BLOCK_POOL` before forking (as :mod:`repro.obs.live.bus` parks
the telemetry queue), so a shard payload carries only its hour range,
worker index and slot -- the world, the ground truth and the slots
never ride a pickle or a name.  The workers fork on the pool's first
dispatch and serve every later block over one pipe each, so the pool
requires the ``fork`` start method.  A worker ignores SIGINT (a
terminal's Ctrl-C reaches the whole process group; the parent decides
whether a block finishes) and dies on SIGTERM, which is how
:meth:`BlockPool.close` ends a block still in flight.

Fallback: when the workers or the slots cannot be used (sandboxed
environments, no fork start method, a worker that died) the pool
demotes once, and every block from then on runs its shards in this
process sequentially, writing into one block-wide sink that may promote
dtypes.  A count past a slot's planned dtype (``OverflowError``)
demotes only its own block; the workers serve the next.  The switch is
*observable*: the ``parallel_fallback_total`` counter increments and
:meth:`BlockPool.result` returns the reason, which batch datasets and
serve manifests record as ``provenance.parallel_fallback`` -- so
``repro runs show`` reveals that a "parallel" run actually ran
sequentially.

Observability: each shard runs under its own fresh
:class:`~repro.obs.metrics.MetricsRegistry` (instruments hold locks and
cannot cross process boundaries), dumps it into the
:class:`~repro.world.simulator.ShardResult`, and the parent folds every
shard's state back into the active registry when it collects the
block.  The parent's trace gains one ``simulate.shard`` span per shard
carrying the worker's hour range and wall time, recorded from the
shard's own timings so the stage metrics count each shard once; a
block cancelled in flight is never collected and records nothing.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.dataset import MeasurementDataset
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.world.columnar import BlockSink
from repro.world.sharedmem import SharedMonthBuffer

if TYPE_CHECKING:  # circular at runtime: simulator dispatches to us
    from repro.world.simulator import MonthSimulator, ShardResult

#: Floor on shard size: below this, process spin-up dominates the work and
#: the auto worker count backs off toward sequential.
MIN_HOURS_PER_SHARD = 24

#: The live pool, parked here for its forked workers to inherit (its
#: simulator and slots) and for :func:`_pool_dispatch` to reach its
#: pipes; ``None`` when no pool is open.
_BLOCK_POOL: Optional["BlockPool"] = None

#: Exceptions that demote a pooled block to in-process shards.
#: ``OverflowError`` is the fixed-dtype slot overflow -- the in-process
#: path can promote dtypes mid-run, so it can still finish.  A worker
#: that dies mid-block surfaces as ``ChildProcessError`` (an ``OSError``).
_FALLBACK_ERRORS = (OSError, ValueError, OverflowError)


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def default_workers(hours: int) -> int:
    """The ``--workers`` auto default.

    ``$REPRO_WORKERS`` overrides the starting point, but the result is
    always clamped to both the CPU affinity mask and the
    :data:`MIN_HOURS_PER_SHARD` work floor -- an env override used to be
    able to oversubscribe a small machine (the recorded 0.37x "speedup"
    came from 4 workers timesharing one core).
    """
    requested = available_cpus()
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        try:
            requested = int(env)
        except ValueError:
            obs.logger.warning("ignoring non-integer REPRO_WORKERS=%r", env)
    return max(1, min(requested, available_cpus(), hours // MIN_HOURS_PER_SHARD))


def plan_shards(hours: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal hour blocks exactly covering ``[0, hours)``.

    The first ``hours % workers`` blocks get one extra hour.  Never
    returns empty blocks; with ``workers >= hours`` each block is a
    single hour.
    """
    if hours < 0:
        raise ValueError(f"negative hours: {hours}")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    if hours == 0:
        return []
    workers = min(workers, hours)
    base, extra = divmod(hours, workers)
    shards: List[Tuple[int, int]] = []
    start = 0
    for i in range(workers):
        size = base + (1 if i < extra else 0)
        shards.append((start, start + size))
        start += size
    return shards


def _simulate_shard(payload, sink=None) -> "ShardResult":
    """Simulate one shard of an hour block under fresh obs state.

    Runs in a forked worker process, or in-process on fallback; either
    way on the simulator of the pool parked in :data:`_BLOCK_POOL` (a
    forked worker inherits it), so the payload is just ``(hour_start,
    hour_stop, worker, slot)``.  A fresh metrics registry captures
    exactly this shard's instruments for the parent to merge; the tracer
    is disabled -- worker processes must not interleave writes into the
    parent's trace file.  Live telemetry, in contrast, *is* wired
    through: when the parent parked a telemetry queue before forking the
    pool, the worker installs an emitter bound to it (labelled with its
    worker index) so per-hour progress streams to the parent while the
    shard runs.

    A pooled shard (``slot`` is ``(slot index, block start)``) writes
    straight into that inherited slot, sliced to this shard's hours at
    fixed dtypes, and only the tiny bookkeeping fields ride the pickle.
    The in-process fallback passes ``slot=None`` and ``sink`` instead:
    the parent's block-wide :class:`~repro.world.columnar.BlockSink`,
    which may promote dtypes.
    """
    hour_start, hour_stop, worker, slot = payload
    pool = _BLOCK_POOL
    registry = MetricsRegistry()
    old_registry = obs.set_registry(registry)
    old_tracer = obs.set_tracer(Tracer())
    old_emitter = obs.set_emitter(obs.inherited_emitter(worker))
    try:
        if slot is not None:
            index, block_start = slot
            sink = BlockSink(
                pool.slots[index].shard_arrays(
                    hour_start - block_start, hour_stop - block_start
                ),
                hour_start, fixed_dtype=True,
            )
        shard = pool.simulator.run_shard(hour_start, hour_stop, sink=sink)
        shard.metrics = registry.dump_state()
        return shard
    finally:
        obs.set_registry(old_registry)
        obs.set_tracer(old_tracer)
        obs.set_emitter(old_emitter)


def _current_cpu() -> Optional[int]:
    """The CPU this process last ran on, or ``None`` where unreadable."""
    try:
        with open("/proc/self/stat") as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _leave_parent_cpu(worker: int, parent_cpu: Optional[int]) -> None:
    """Move forked worker ``worker`` to the CPU ``worker + 1`` places
    past ``parent_cpu``, among the CPUs this process may use.

    A forked child usually starts on its parent's CPU, and a host that
    does not balance load across CPUs leaves it there: a pipelined serve
    loop then time-shares one CPU while another idles (measured on a
    2-vCPU VM: parent and worker each waited ~40% of the loop in the run
    queue).  Narrowing the affinity mask moves the worker at once;
    restoring it keeps every CPU allowed, so a balancing scheduler stays
    free to place it later.  Where the parent's CPU is unknown this
    does nothing.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return
    if parent_cpu in allowed:
        target = allowed[
            (allowed.index(parent_cpu) + 1 + worker) % len(allowed)
        ]
        os.sched_setaffinity(0, {target})
        os.sched_setaffinity(0, allowed)


def _serve_shards(
    connection, worker: int, parent_cpu: Optional[int]
) -> None:
    """A pool worker's life: simulate every payload its pipe delivers.

    Runs in the forked child.  It first closes the parent's pipe ends it
    inherited, so that the parent's exit reads as end-of-file here, sets
    its signals (see the module doc) and leaves its parent's CPU.  Each
    reply is ``(True, ShardResult)`` or ``(False, exception)``; ``None``
    or end-of-file ends the loop.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for inherited in _BLOCK_POOL.connections:
        inherited.close()
    _leave_parent_cpu(worker, parent_cpu)
    while True:
        try:
            payload = connection.recv()
        except EOFError:
            return
        if payload is None:
            return
        try:
            reply = (True, _simulate_shard(payload))
        except Exception as exc:  # noqa: BLE001 - the parent decides
            reply = (False, exc)
        connection.send(reply)


def _pool_dispatch(payloads: Sequence[tuple]) -> None:
    """Hand each shard payload to its worker (``payload[2]``) of the
    live pool.

    The one seam between a block and the worker processes.  The pool's
    first dispatch allocates its slots and forks its workers
    (:meth:`BlockPool.start`); without ``fork`` that raises ``OSError``
    and the pool demotes to in-process shards.
    """
    pool = _BLOCK_POOL
    if not pool.processes:
        pool.start()
    for payload in payloads:
        pool.connections[payload[2]].send(payload)


def _record_fallback(exc: BaseException, shards: int) -> Dict[str, Any]:
    """Log, trace and count one demotion; returns its provenance record."""
    obs.logger.warning(
        "parallel dispatch unavailable (%s); running %d shards in-process",
        exc, shards,
    )
    obs.event(
        "simulate.parallel_fallback", reason=repr(exc), shards=shards,
    )
    obs.registry().counter("parallel_fallback_total").inc()
    return {"reason": repr(exc), "shards": shards}


def _record_shards(results: Sequence["ShardResult"]) -> None:
    """Place each collected shard in the trace and merge its metrics."""
    registry = obs.registry()
    tracer = obs.tracer()
    for i, shard in enumerate(results):
        # The worker already counted this shard's stage rows; the parent
        # only places its span in the trace.
        tracer.record_finished(
            "simulate.shard", shard.started, shard.elapsed_seconds,
            worker=i,
            hour_start=shard.hour_start,
            hour_stop=shard.hour_stop,
            worker_seconds=round(shard.elapsed_seconds, 6),
            worker_cpu_seconds=round(shard.cpu_seconds, 6),
            transactions=shard.transactions,
        )
        if shard.metrics:
            registry.merge_state(shard.metrics)
        # Per-shard wall/CPU accounting: run manifests report aggregate
        # worker compute alongside the parent's wall time.
        registry.gauge(
            "simulate_shard_seconds", worker=str(i)
        ).set(shard.elapsed_seconds)
        registry.counter(
            "simulate_worker_cpu_seconds_total"
        ).inc(shard.cpu_seconds)


class BlockPool:
    """Forked simulation workers and the slot buffers they count into.

    ``workers`` processes (at least one) fork on the first
    :meth:`submit` and serve every block until :meth:`close`; ``slots``
    buffers of ``slot_hours`` hours each are allocated just before that
    fork, so the workers inherit them.  One block is in flight at a
    time: :meth:`submit` shards block ``[hour_start, hour_stop)`` across
    the workers into slot ``slot`` and returns at once, and
    :meth:`result` waits for it.  The arrays it returns are views of
    that slot, valid until another block is submitted into the same
    slot.  :meth:`close` terminates a block still in flight, joins the
    workers and drops the slots; no worker outlives it.

    One pool is open per process at a time: its workers find it in
    :data:`_BLOCK_POOL`.
    """

    def __init__(
        self,
        simulator: "MonthSimulator",
        workers: int = 1,
        slot_hours: int = 0,
        slots: int = 1,
    ) -> None:
        global _BLOCK_POOL
        if _BLOCK_POOL is not None:
            raise RuntimeError("a block pool is already open in this process")
        self.simulator = simulator
        self.workers = max(1, workers)
        self.slot_hours = slot_hours
        self.n_slots = slots
        self.slots: List[SharedMonthBuffer] = []
        self.processes: List[Any] = []
        self.connections: List[Any] = []
        #: The demotion record once the workers are gone for good; every
        #: later block runs in-process and returns it.
        self.demoted: Optional[Dict[str, Any]] = None
        #: ``(hour_start, hour_stop, shards, slot)`` of the block in
        #: flight (``slot`` is ``None`` when it runs in-process).
        self._pending: Optional[tuple] = None
        _BLOCK_POOL = self

    def __enter__(self) -> "BlockPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def start(self) -> None:
        """Allocate the slots, then fork the workers that inherit them."""
        if "fork" not in multiprocessing.get_all_start_methods():
            raise OSError("no fork start method: workers cannot inherit the "
                          "block's simulator")
        world = self.simulator.world
        per_hour = self.simulator.access.per_hour
        self.slots = [
            SharedMonthBuffer(world, per_hour, self.slot_hours)
            for _ in range(self.n_slots)
        ]
        context = multiprocessing.get_context("fork")
        parent_cpu = _current_cpu()
        for worker in range(self.workers):
            ours, theirs = context.Pipe()
            process = context.Process(
                target=_serve_shards, args=(theirs, worker, parent_cpu),
                name=f"repro-shard-{worker}", daemon=True,
            )
            self.connections.append(ours)
            self.processes.append(process)
            process.start()
            theirs.close()

    def submit(self, hour_start: int, hour_stop: int, slot: int = 0) -> None:
        """Start simulating block ``[hour_start, hour_stop)`` into ``slot``."""
        if self._pending is not None:
            raise RuntimeError("submit() while a block is in flight")
        world = self.simulator.world
        if not 0 <= hour_start <= hour_stop <= world.hours:
            raise ValueError(
                f"hour block [{hour_start}, {hour_stop}) outside experiment "
                f"(0..{world.hours})"
            )
        if hour_stop - hour_start > self.slot_hours:
            raise ValueError(
                f"hour block [{hour_start}, {hour_stop}) exceeds the pool's "
                f"{self.slot_hours}-hour slots"
            )
        shards = [
            (hour_start + h0, hour_start + h1)
            for h0, h1 in plan_shards(hour_stop - hour_start, self.workers)
        ]
        where: Optional[int] = None
        if self.demoted is None:
            try:
                _pool_dispatch([
                    (h0, h1, i, (slot, hour_start))
                    for i, (h0, h1) in enumerate(shards)
                ])
                where = slot
            except _FALLBACK_ERRORS as exc:
                self._demote(exc, len(shards))
        self._pending = (hour_start, hour_stop, shards, where)

    def result(self) -> Tuple[Dict[str, np.ndarray], Optional[Dict[str, Any]]]:
        """Wait for the block in flight: ``(arrays, fallback)``.

        ``arrays`` are the block's count arrays of shape ``(clients,
        sites, hour_stop - hour_start)``; ``fallback`` is ``None`` or the
        ``{"reason", "shards"}`` record of the block's demotion to
        in-process shards, for the caller's provenance.
        """
        if self._pending is None:
            raise RuntimeError("result() with no block in flight")
        hour_start, hour_stop, shards, slot = self._pending
        fallback = self.demoted
        if slot is not None:
            try:
                results = self._collect(len(shards))
            except OverflowError as exc:
                fallback = _record_fallback(exc, len(shards))
            except _FALLBACK_ERRORS as exc:
                fallback = self._demote(exc, len(shards))
        self._pending = None
        if fallback is None:
            arrays: Dict[str, np.ndarray] = {}
            self.slots[slot].adopt_into(arrays, hour_stop - hour_start)
        else:
            sink = BlockSink(
                MeasurementDataset.block_template(
                    self.simulator.world, hour_stop - hour_start,
                    self.simulator.access.per_hour,
                ),
                hour_start,
            )
            results = [
                _simulate_shard((h0, h1, i, None), sink)
                for i, (h0, h1) in enumerate(shards)
            ]
            arrays = sink.arrays
        _record_shards(results)
        return arrays, fallback

    def close(self) -> None:
        """End the pool: terminate a block in flight, join every worker,
        drop the slots.  Idempotent."""
        global _BLOCK_POOL
        self._stop_workers(terminate=self._pending is not None)
        self._pending = None
        self.slots = []
        if _BLOCK_POOL is self:
            _BLOCK_POOL = None

    def _collect(self, shards: int) -> List["ShardResult"]:
        """Every dispatched worker's reply, in worker order.

        All replies are read before a worker's exception is raised, so
        the pipes are clean for the next block.
        """
        results: List["ShardResult"] = []
        error: Optional[BaseException] = None
        for worker, connection in enumerate(self.connections[:shards]):
            try:
                ok, value = connection.recv()
            except EOFError:
                raise ChildProcessError(
                    f"shard worker {worker} exited mid-block"
                ) from None
            if ok:
                results.append(value)
            elif error is None:
                error = value
        if error is not None:
            raise error
        return results

    def _demote(self, exc: BaseException, shards: int) -> Dict[str, Any]:
        """Give up the workers for good: this and every later block runs
        in-process."""
        self.demoted = _record_fallback(exc, shards)
        self._stop_workers(terminate=True)
        self.slots = []
        return self.demoted

    def _stop_workers(self, terminate: bool) -> None:
        for connection, process in zip(self.connections, self.processes):
            if not terminate:
                try:
                    connection.send(None)
                    continue
                except OSError:
                    pass
            process.terminate()
        for process in self.processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join()
        for connection in self.connections:
            connection.close()
        self.processes, self.connections = [], []


def run_block(
    simulator: "MonthSimulator",
    hour_start: int,
    hour_stop: int,
    workers: int = 1,
) -> Tuple[Dict[str, np.ndarray], Optional[Dict[str, Any]]]:
    """Simulate one contiguous hour block: :class:`BlockPool`'s one-block use.

    Returns ``(arrays, fallback)`` as :meth:`BlockPool.result` does (the
    batch month is the block ``[0, hours)``).  Per-hour RNG streams make
    the arrays bit-identical to the same hours of any other split.

    ``workers`` > 1 sub-shards the block across a pool of that many
    processes; the returned arrays are views of the pool's one slot,
    which lives as long as they do.  A block with a single shard runs in
    this process.
    """
    n_hours = hour_stop - hour_start
    shards = len(plan_shards(max(0, n_hours), max(1, workers)))
    if shards <= 1:
        return simulator.run_shard(hour_start, hour_stop).arrays, None
    with BlockPool(simulator, shards, n_hours) as pool:
        pool.submit(hour_start, hour_stop)
        return pool.result()
