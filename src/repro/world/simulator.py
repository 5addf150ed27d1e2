"""The fast, vectorised month simulator.

Runs the whole experiment (134 clients x 80 sites x 744 hours x ~4
accesses/hour ~ 25M transactions) in well under a second by drawing
per-hour outcome counts over the columnar (category x client x site)
rate lattice (:mod:`repro.world.columnar`) directly into a
:class:`~repro.core.dataset.MeasurementDataset`.

The statistical model is identical to the detailed message-level engine
(:mod:`repro.world.detailed`); a validation test holds the two to
agreement.  Counts are drawn by Poisson factorisation -- the exact
category decomposition of the per-access DNS -> TCP -> HTTP stage
cascade -- with one scalar Poisson total and a multinomial scatter per
hour instead of a per-cell binomial cascade.

Determinism contract: every hour draws from its own derived RNG stream
(``fast-engine/hour/<h>``), so the month can be simulated in any order --
sequentially, or sharded across worker processes in contiguous hour blocks
(:mod:`repro.world.parallel`) -- and the resulting dataset is bit-identical
for the same master seed, independent of worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.dataset import MeasurementDataset
from repro.world.columnar import BlockSink, ColumnarEngine
from repro.world.entities import ClientCategory, World
from repro.world.faults import FaultConfig, FaultGenerator, GroundTruth
from repro.world.outcome_model import AccessConfig, OutcomeModel
from repro.world.rng import RNGRegistry


@dataclass
class SimulationResult:
    """The dataset plus the ground truth it was generated from.

    Ground truth is returned for *validation only* -- analyses must not
    consume it.
    """

    dataset: MeasurementDataset
    truth: GroundTruth
    model: OutcomeModel


@dataclass
class ShardResult:
    """One worker's simulated contiguous hour block.

    ``arrays`` maps every dataset array field to its counts restricted to
    ``[hour_start, hour_stop)``.  When the caller supplied the sink (the
    pooled block buffer, :mod:`repro.world.sharedmem`, or the in-process
    fallback's block sink) the counts already live in the caller's
    arrays and ``arrays`` is ``None`` -- only the bookkeeping fields
    ride the (tiny) pickled result.
    """

    hour_start: int
    hour_stop: int  # exclusive
    arrays: Optional[Dict[str, np.ndarray]]
    transactions: int
    elapsed_seconds: float
    stage_seconds: Dict[str, float]
    #: CPU seconds this shard's worker process spent on it -- summed by
    #: the parent into ``simulate_worker_cpu_seconds_total`` so a run
    #: manifest can report aggregate compute, not just wall time.
    cpu_seconds: float = 0.0
    #: ``perf_counter()`` reading when the shard began (the clock is
    #: system-wide, so the parent can place a worker's span in its trace).
    started: float = 0.0
    #: Dumped per-worker metrics registry state (see
    #: :meth:`~repro.obs.metrics.MetricsRegistry.dump_state`), merged into
    #: the parent registry after the join.  Filled by the parallel driver.
    metrics: Optional[list] = None


class MonthSimulator:
    """Vectorised engine: one Poisson-factorised scatter per hour."""

    def __init__(
        self,
        world: World,
        access: Optional[AccessConfig] = None,
        faults: Optional[FaultConfig] = None,
        rngs: Optional[RNGRegistry] = None,
        truth: Optional[GroundTruth] = None,
    ) -> None:
        self.world = world
        self.access = access or AccessConfig()
        self.rngs = rngs or RNGRegistry()
        if truth is None:
            truth = FaultGenerator(world, faults, self.rngs.fork("faults")).generate()
        self.truth = truth
        self.model = OutcomeModel(world, truth, self.access)
        self.engine = ColumnarEngine(self.model, truth, self.rngs, self.access)
        #: Per-stage wall-time accumulators, committed to the metrics
        #: registry at the end of each run().
        self._stage_seconds = {"dns": 0.0, "tcp": 0.0, "http": 0.0, "commit": 0.0}

    # -- public API -------------------------------------------------------------

    def run(self, workers: Optional[int] = None) -> SimulationResult:
        """Simulate every hour and return the filled dataset.

        The month is one hour block for
        :func:`~repro.world.parallel.run_block`: ``workers`` > 1 shards
        it across that many worker processes in contiguous hour ranges;
        ``None`` or 1 runs in-process.  The result is bit-identical for
        any worker count at the same master seed.
        """
        from repro.world.parallel import plan_shards, run_block

        hours = self.world.hours
        shards = plan_shards(hours, max(1, workers or 1))
        emitter = obs.emitter()
        if emitter.enabled:
            emitter.emit(
                "run_start", hours=hours, workers=len(shards),
                engine="fast", shards=[[h0, h1] for h0, h1 in shards],
            )
        with obs.span(
            "simulate.month", hours=hours, workers=len(shards)
        ) as month_span:
            arrays, fallback = run_block(self, 0, hours, len(shards))
            dataset = MeasurementDataset.from_arrays(self.world, arrays)
            month_span.add_items(int(dataset.transactions.sum()))
        totals = _dataset_totals(dataset)
        self._commit_outcome_metrics(dataset, totals)
        self._attach_provenance(dataset, workers=len(shards))
        if fallback is not None:
            dataset.provenance["parallel_fallback"] = fallback
        if emitter.enabled:
            emitter.emit("run_done", **totals)
        return SimulationResult(dataset=dataset, truth=self.truth, model=self.model)

    def run_shard(
        self,
        hour_start: int,
        hour_stop: int,
        sink: Optional[BlockSink] = None,
    ) -> ShardResult:
        """Simulate one contiguous hour block and return its counts.

        The unit of work :func:`~repro.world.parallel.run_block` runs
        in-process or dispatches to worker processes.  Stage wall-times
        are committed to the active (per worker) metrics registry.  By
        default the counts land in freshly allocated block arrays
        returned on the result; when the caller passes a ``sink`` (whose
        arrays the caller already owns, possibly wider than this shard)
        the result carries no arrays.
        """
        if not 0 <= hour_start <= hour_stop <= self.world.hours:
            raise ValueError(
                f"hour block [{hour_start}, {hour_stop}) outside experiment "
                f"(0..{self.world.hours})"
            )
        started = perf_counter()
        cpu_started = process_time()
        owns_arrays = sink is None
        if sink is None:
            sink = BlockSink(
                MeasurementDataset.block_template(
                    self.world, hour_stop - hour_start, self.access.per_hour
                ),
                hour_start,
            )
        self._stage_seconds = {"dns": 0.0, "tcp": 0.0, "http": 0.0, "commit": 0.0}
        emitter = obs.emitter()
        if emitter.enabled:
            emitter.emit(
                "shard_start", hour_start=hour_start, hour_stop=hour_stop
            )
        with obs.span(
            "simulate.shard", hour_start=hour_start, hour_stop=hour_stop
        ) as shard_span:
            self.engine.simulate_block(
                hour_start, hour_stop, sink, self._stage_seconds
            )
            t0 = hour_start - sink.hour_start
            transactions = int(
                sink.arrays["transactions"][
                    ..., t0 : t0 + (hour_stop - hour_start)
                ].sum(dtype=np.int64)
            )
            shard_span.add_items(transactions)
        self._commit_stage_metrics(hour_stop - hour_start)
        elapsed_seconds = perf_counter() - started
        cpu_seconds = process_time() - cpu_started
        if emitter.enabled:
            emitter.emit(
                "shard_done",
                hour_start=hour_start,
                hour_stop=hour_stop,
                transactions=transactions,
                elapsed_seconds=round(elapsed_seconds, 6),
                cpu_seconds=round(cpu_seconds, 6),
            )
        return ShardResult(
            hour_start=hour_start,
            hour_stop=hour_stop,
            arrays=sink.arrays if owns_arrays else None,
            transactions=transactions,
            elapsed_seconds=elapsed_seconds,
            stage_seconds=dict(self._stage_seconds),
            cpu_seconds=cpu_seconds,
            started=started,
        )

    def _attach_provenance(
        self, dataset: MeasurementDataset, workers: int
    ) -> None:
        """Stamp the dataset with how it was generated (saved in .npz)."""
        dataset.provenance.update(
            {
                "engine": "fast",
                "master_seed": self.rngs.master_seed,
                "per_hour": self.access.per_hour,
                "workers": workers,
            }
        )

    def _commit_stage_metrics(self, hours: int) -> None:
        """Record per-stage wall-times accumulated over ``hours`` hours."""
        registry = obs.registry()
        for stage_name, seconds in self._stage_seconds.items():
            registry.counter(
                "stage_seconds_total", stage=f"simulate.{stage_name}"
            ).inc(seconds)
            registry.counter(
                "stage_calls_total", stage=f"simulate.{stage_name}"
            ).inc(hours)

    def _commit_outcome_metrics(
        self, dataset: MeasurementDataset, totals: Dict[str, int]
    ) -> None:
        """Record the run's outcome counts from :func:`_dataset_totals`."""
        registry = obs.registry()
        transactions, dns, tcp, http, masked = (
            totals[key] for key in ("transactions", "dns", "tcp", "http", "masked")
        )
        registry.counter("simulate_transactions_total").inc(transactions)
        registry.counter("simulate_dns_failures_total").inc(dns)
        registry.counter("simulate_tcp_failures_total").inc(tcp)
        registry.counter("simulate_http_errors_total").inc(http)
        registry.counter("simulate_masked_failures_total").inc(masked)
        registry.counter("simulate_successes_total").inc(
            max(0, transactions - dns - tcp - http - masked)
        )
        registry.counter("simulate_connections_total").inc(
            int(dataset.connections.sum())
        )
        registry.counter("simulate_failed_connections_total").inc(
            int(dataset.failed_connections.sum())
        )
        registry.gauge("simulate_hours").set(self.world.hours)


def _dataset_totals(dataset: MeasurementDataset) -> Dict[str, int]:
    """Month-wide per-failure-type totals, each field summed on its own."""
    return {
        key: int(dataset.sums(fields, ""))
        for key, fields in (
            ("transactions", ("transactions",)),
            ("dns", dataset.DNS_FAILURE_FIELDS),
            ("tcp", dataset.TCP_FAILURE_FIELDS),
            ("http", ("http_errors",)),
            ("masked", ("masked_failures",)),
        )
    }


def _split(total: int, parts: int, rng: np.random.Generator, weights=None) -> np.ndarray:
    """Multinomially split ``total`` across ``parts`` bins.

    The scalar reference the columnar engine's batched
    ``rng.multinomial`` replica splits generalise; kept for the detailed
    engine and as the semantic anchor the tests pin.
    """
    total = int(total)
    if parts == 1:
        return np.array([total], dtype=np.int64)
    if total == 0:
        return np.zeros(parts, dtype=np.int64)
    p = np.full(parts, 1.0 / parts) if weights is None else np.asarray(weights)
    return rng.multinomial(total, p).astype(np.int64)


def _expected_leading_failures(
    replica_eff_fail: np.ndarray, n_replicas: np.ndarray
) -> np.ndarray:
    """Expected dead-replica attempts before a success, per site.

    With the address list rotated uniformly and replica r down with
    probability q_r (persisting for the hour), the expected number of
    failed attempts before reaching an up replica, conditioned on at least
    one being up, is approximated by sum(q_r) / (n - sum(q_r) + 1).

    Scalar reference implementation; the columnar engine evaluates the
    same formula vectorised over hour chunks
    (:func:`repro.world.columnar.expected_leading_failures`).
    """
    out = np.zeros(replica_eff_fail.shape[0], dtype=np.float64)
    for si in range(replica_eff_fail.shape[0]):
        r = int(n_replicas[si])
        if r <= 1:
            continue
        q = replica_eff_fail[si, :r]
        down = float(q.sum())
        up = r - down
        if up <= 0:
            continue
        out[si] = down / (up + 1.0)
    return out


def default_simulator(
    hours: int = 744,
    per_hour: int = 4,
    seed: int = 20050101,
    faults: Optional[FaultConfig] = None,
    truth_transform=None,
) -> MonthSimulator:
    """The default world and its ground truth, ready to simulate.

    ``truth_transform(world, truth) -> truth`` edits the generated
    ground truth before simulation -- the fault-injection hook behind
    ``repro simulate --fault`` (see :mod:`repro.world.scenarios`).  Seed
    derivation is stateless per stream, so generating the truth here and
    handing it to the simulator draws exactly what the simulator would
    have drawn itself: a ``None`` transform is bit-identical to omitting
    the parameter.
    """
    from repro.world.defaults import build_default_world

    world = build_default_world(hours=hours)
    access = AccessConfig(per_hour=per_hour)
    rngs = RNGRegistry(seed)
    truth = FaultGenerator(world, faults, rngs.fork("faults")).generate()
    if truth_transform is not None:
        truth = truth_transform(world, truth)
    return MonthSimulator(world, access=access, rngs=rngs, truth=truth)


def simulate_default_month(
    hours: int = 744,
    per_hour: int = 4,
    seed: int = 20050101,
    faults: Optional[FaultConfig] = None,
    workers: Optional[int] = None,
    truth_transform=None,
) -> SimulationResult:
    """Convenience one-call entry point: default world, default faults.

    ``workers`` > 1 runs the hour-sharded parallel engine; output is
    bit-identical to the sequential path for the same seed.  The other
    parameters are :func:`default_simulator`'s.
    """
    return default_simulator(
        hours, per_hour, seed, faults=faults,
        truth_transform=truth_transform,
    ).run(workers=workers)
