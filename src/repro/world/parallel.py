"""The hour-block driver: deterministic, hour-sharded simulation.

The fast engine's hour loop is embarrassingly parallel once every hour
draws from its own derived RNG stream (``fast-engine/hour/<h>``): a worker
process simulating hours ``[h0, h1)`` produces exactly the counts the
sequential engine would for those hours, because seed derivation depends
only on the master seed and the hour -- never on which process runs it or
what ran before.

:func:`run_block` is the one hour driver.  A batch month
(:meth:`~repro.world.simulator.MonthSimulator.run`) is the block
``[0, hours)``; a serve chunk (:mod:`repro.serve`) is any sub-range.  A
block is sharded into contiguous hour ranges, one per worker; workers
write their counts directly into one anonymous shared mapping sized for
the block (:mod:`repro.world.sharedmem`), whose views the parent hands
on as the block's arrays after the join -- no pickled count arrays, no
copy, no merge loop.  A block with a single shard runs in this process.

Determinism contract: for a given master seed the block's arrays are
bit-identical for *any* worker count -- ``--workers 1``, the in-process
fallback, and any process-pool width all digest equal.

Workers inherit the block's simulator and buffer over ``fork``:
:func:`run_block` parks both in module-level slots before the pool
forks (as :mod:`repro.obs.live.bus` parks the telemetry queue), so a
shard payload carries only its hour range, worker index and block start
-- the world, the ground truth and the buffer never ride a pickle or a
name.  The pool therefore requires the ``fork`` start method; a spawned
child would find neither slot filled.

Fallback: when the pool or the shared buffer cannot be used (sandboxed
environments, no fork start method, broken pools, undersized planned
dtypes) every shard runs in this process sequentially, writing into
one block-wide sink that may promote dtypes.  The switch is
*observable*: the ``parallel_fallback_total`` counter increments and
:func:`run_block` returns the reason, which batch datasets and serve
manifests record as ``provenance.parallel_fallback`` -- so
``repro runs show`` reveals that a "parallel" run actually ran
sequentially.

Observability: each shard runs under its own fresh
:class:`~repro.obs.metrics.MetricsRegistry` (instruments hold locks and
cannot cross process boundaries), dumps it into the
:class:`~repro.world.simulator.ShardResult`, and the parent folds every
shard's state back into the active registry after the join.  The parent's
trace gains one ``simulate.shard`` span per shard carrying the worker's
hour range and wall time, recorded from the shard's own timings so the
stage metrics count each shard once.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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

#: The simulator of the block being dispatched, parked here for forked
#: workers to inherit; ``None`` outside :func:`run_block`.
_BLOCK_SIMULATOR: Optional["MonthSimulator"] = None

#: The pooled block's count buffer, parked beside the simulator; forked
#: workers write their hour slices through its inherited views.
_BLOCK_BUFFER: Optional[SharedMonthBuffer] = None

#: Exceptions that demote a parallel run to the in-process fallback.
#: ``OverflowError`` is the fixed-dtype block-buffer overflow -- the
#: in-process path can promote dtypes mid-run, so it can still finish.
_FALLBACK_ERRORS = (
    OSError, ValueError, pickle.PicklingError, BrokenProcessPool,
    OverflowError,
)


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
    way on the block's simulator parked in :data:`_BLOCK_SIMULATOR`
    (a forked worker inherits it), so the payload is just
    ``(hour_start, hour_stop, worker, block_start)``.  A fresh metrics
    registry captures exactly this shard's instruments for the parent to
    merge; the tracer is disabled -- worker processes must not
    interleave writes into the parent's trace file.  Live telemetry, in
    contrast, *is* wired through: when the parent parked a telemetry
    queue before forking the pool, the worker installs an emitter bound
    to it (labelled with its worker index) so per-hour progress streams
    to the parent while the shard runs.

    A pooled shard (``block_start`` set) writes straight into the
    inherited :data:`_BLOCK_BUFFER`, sliced to this shard's hours at
    fixed dtypes, and only the tiny bookkeeping fields ride the pickle.
    The in-process fallback passes ``block_start=None`` and ``sink``
    instead: the parent's block-wide
    :class:`~repro.world.columnar.BlockSink`, which may promote dtypes.
    """
    hour_start, hour_stop, worker, block_start = payload
    registry = MetricsRegistry()
    old_registry = obs.set_registry(registry)
    old_tracer = obs.set_tracer(Tracer())
    old_emitter = obs.set_emitter(obs.inherited_emitter(worker))
    try:
        if block_start is not None:
            sink = BlockSink(
                _BLOCK_BUFFER.shard_arrays(
                    hour_start - block_start, hour_stop - block_start
                ),
                hour_start, fixed_dtype=True,
            )
        shard = _BLOCK_SIMULATOR.run_shard(hour_start, hour_stop, sink=sink)
        shard.metrics = registry.dump_state()
        return shard
    finally:
        obs.set_registry(old_registry)
        obs.set_tracer(old_tracer)
        obs.set_emitter(old_emitter)


def _pool_dispatch(payloads: Sequence[tuple]) -> List["ShardResult"]:
    """Run every shard payload on a fork process pool.

    Workers find the block's simulator and buffer in
    :data:`_BLOCK_SIMULATOR` and :data:`_BLOCK_BUFFER`, which only
    ``fork`` hands down; without it this raises ``OSError`` so the
    caller demotes to in-process shards.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        raise OSError("no fork start method: workers cannot inherit the "
                      "block's simulator")
    with ProcessPoolExecutor(
        max_workers=len(payloads),
        mp_context=multiprocessing.get_context("fork"),
    ) as pool:
        return list(pool.map(_simulate_shard, payloads))


def run_block(
    simulator: "MonthSimulator",
    hour_start: int,
    hour_stop: int,
    workers: int = 1,
) -> Tuple[Dict[str, np.ndarray], Optional[Dict[str, Any]]]:
    """Simulate one contiguous hour block; the only hour driver.

    Returns ``(arrays, fallback)``: block count arrays of shape
    ``(clients, sites, hour_stop - hour_start)`` (the batch month is the
    block ``[0, hours)``, a serve chunk any sub-range), and ``None`` or
    the ``{"reason", "shards"}`` record of a demotion to in-process
    shards, for the caller's provenance.  Per-hour RNG streams make the
    arrays bit-identical to the same hours of any other split.

    ``workers`` > 1 sub-shards the block across a process pool; the
    returned arrays are views of the one shared mapping the workers
    wrote (:class:`~repro.world.sharedmem.SharedMonthBuffer`), which
    lives as long as they do.
    """
    world = simulator.world
    if not 0 <= hour_start <= hour_stop <= world.hours:
        raise ValueError(
            f"hour block [{hour_start}, {hour_stop}) outside experiment "
            f"(0..{world.hours})"
        )
    n_hours = hour_stop - hour_start
    shards = [
        (hour_start + h0, hour_start + h1)
        for h0, h1 in plan_shards(n_hours, max(1, workers))
    ]
    if len(shards) <= 1:
        return simulator.run_shard(hour_start, hour_stop).arrays, None

    def payloads(block_start: Optional[int]) -> List[tuple]:
        return [(h0, h1, i, block_start) for i, (h0, h1) in enumerate(shards)]

    global _BLOCK_SIMULATOR, _BLOCK_BUFFER
    _BLOCK_SIMULATOR = simulator
    per_hour = simulator.access.per_hour
    fallback: Optional[Dict[str, Any]] = None
    try:
        try:
            _BLOCK_BUFFER = SharedMonthBuffer(world, per_hour, n_hours)
            results = _pool_dispatch(payloads(hour_start))
            arrays: Dict[str, np.ndarray] = {}
            _BLOCK_BUFFER.adopt_into(arrays)
        except _FALLBACK_ERRORS as exc:
            # Drop the half-written mapping before the in-process pass.
            _BLOCK_BUFFER = None
            fallback = {"reason": repr(exc), "shards": len(shards)}
            obs.logger.warning(
                "parallel dispatch unavailable (%s); running %d shards "
                "in-process", exc, len(shards),
            )
            obs.event(
                "simulate.parallel_fallback", reason=fallback["reason"],
                shards=len(shards),
            )
            obs.registry().counter("parallel_fallback_total").inc()
        if fallback is not None:
            sink = BlockSink(
                MeasurementDataset.block_template(world, n_hours, per_hour),
                hour_start,
            )
            results = [_simulate_shard(p, sink) for p in payloads(None)]
            arrays = sink.arrays
    finally:
        # Release the block's world, truth and buffer: a long-lived
        # serve process must not keep a finished block pinned here.
        _BLOCK_SIMULATOR = _BLOCK_BUFFER = None
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
    return arrays, fallback
