"""Observability perf baseline: ``BENCH_obs.json``.

Times the vectorised simulator and the full analysis/report pipeline with
instrumentation enabled, records the per-stage breakdown the new
``repro.obs`` layer measures, and asserts that the instrumentation itself
costs < 5% on the simulator hot path (comparing against a run with a
:class:`~repro.obs.metrics.NullRegistry` and a disabled tracer).

The resulting ``BENCH_obs.json`` at the repo root is the baseline every
future performance PR cites.

Standalone by design: does not use the session-scoped full-month fixture,
so ``pytest benchmarks/test_obs_baseline.py`` is cheap.  Scale via
``REPRO_BENCH_OBS_HOURS`` (default 168 -- one simulated week).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro import obs
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.tracing import Tracer
from repro.world.defaults import build_default_world
from repro.world.faults import FaultGenerator
from repro.world.outcome_model import AccessConfig
from repro.world.rng import RNGRegistry
from repro.world.simulator import MonthSimulator

BENCH_PATH = pathlib.Path(__file__).parent.parent / "BENCH_obs.json"
TRAJECTORY_PATH = pathlib.Path(__file__).parent.parent / "BENCH_trajectory.json"

HOURS = int(os.environ.get("REPRO_BENCH_OBS_HOURS", 168))
PER_HOUR = int(os.environ.get("REPRO_BENCH_OBS_PER_HOUR", 4))
SEED = int(os.environ.get("REPRO_BENCH_SEED", 20050101))
# Best-of-N: overhead is measured from the fastest of N runs on each side,
# which filters scheduler noise (a single slow outlier otherwise trips the
# 5% assertion on busy machines).
REPEATS = 5


def _build():
    world = build_default_world(hours=HOURS)
    rngs = RNGRegistry(SEED)
    truth = FaultGenerator(world, rngs=rngs.fork("faults")).generate()
    return world, truth


def _run_simulation(world, truth, registry, tracer):
    """One timed simulator run under the given obs configuration."""
    with obs.use(registry, tracer):
        rngs = RNGRegistry(SEED)
        sim = MonthSimulator(
            world, access=AccessConfig(per_hour=PER_HOUR), rngs=rngs,
            truth=truth,
        )
        started = time.perf_counter()
        result = sim.run()
        return time.perf_counter() - started, result


def _best_of(n, fn):
    times = []
    last = None
    for _ in range(n):
        elapsed, last = fn()
        times.append(elapsed)
    return min(times), last


def test_obs_baseline(emit):
    world, truth = _build()

    # -- instrumented runs: metrics registry + enabled tracer ---------------
    # A fresh registry/tracer per repeat so the recorded breakdown reflects
    # exactly one run, not the sum of the timing repeats.
    state = {}

    def instrumented():
        state["registry"] = MetricsRegistry()
        state["tracer"] = Tracer()
        state["tracer"].enable(keep_in_memory=True)
        return _run_simulation(world, truth, state["registry"], state["tracer"])

    instrumented_s, result = _best_of(REPEATS, instrumented)
    registry, tracer = state["registry"], state["tracer"]
    transactions = int(result.dataset.transactions.sum())

    # -- dark runs: no-op registry, disabled tracer --------------------------
    def dark():
        return _run_simulation(world, truth, NullRegistry(), Tracer())

    dark_s, dark_result = _best_of(REPEATS, dark)

    # Instrumentation must not perturb the simulation itself...
    assert (
        dark_result.dataset.transactions == result.dataset.transactions
    ).all()
    overhead = instrumented_s / dark_s - 1.0
    # ...and must cost < 5% of the vectorised hot path (the acceptance
    # criterion for keeping the instrumentation inline).
    assert overhead < 0.05, (
        f"obs overhead {overhead:.1%} on the vectorised simulator "
        f"(instrumented {instrumented_s:.3f}s vs dark {dark_s:.3f}s)"
    )

    # -- analysis/report pipeline, timed through the same registry ----------
    from repro.core import blame, permanent, report

    with obs.use(registry, tracer):
        report_started = time.perf_counter()
        with obs.span("bench.report"):
            dataset = result.dataset
            perm = permanent.find_permanent_pairs(dataset)
            analysis = blame.run_blame_analysis(dataset, 0.05, perm.mask)
            report.headline_summary(dataset)
            report.table3(dataset)
            report.table5(dataset, perm.mask)
            report.table6(dataset, analysis)
        report_s = time.perf_counter() - report_started

    stages = {}
    snapshot = registry.snapshot()
    for key, value in snapshot.items():
        if key.startswith("stage_seconds_total"):
            stage_name = key.split('stage="')[1].rstrip('"}')
            stages[stage_name] = round(value, 6)

    payload = {
        "hours": HOURS,
        "per_hour": PER_HOUR,
        "seed": SEED,
        "transactions": transactions,
        "simulate_seconds": round(instrumented_s, 4),
        "simulate_seconds_uninstrumented": round(dark_s, 4),
        "instrumentation_overhead": round(overhead, 4),
        "report_seconds": round(report_s, 4),
        "transactions_per_second": round(transactions / instrumented_s),
        "stage_seconds": dict(sorted(stages.items())),
        "span_count": len(tracer.spans),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # Append this observation to the shared bench trajectory: the
    # committed history `repro runs check --baseline` gates against.
    from repro.obs.runstore.trajectory import append_entry

    append_entry(TRAJECTORY_PATH, {
        "bench": "obs_baseline",
        "config": {"hours": HOURS, "per_hour": PER_HOUR, "seed": SEED},
        "engine": "fast",
        "simulate_seconds": round(instrumented_s, 4),
        "report_seconds": round(report_s, 4),
        "transactions": transactions,
        "digest": result.dataset.digest(),
        "instrumentation_overhead": round(overhead, 4),
    })

    emit(
        "Observability baseline (BENCH_obs.json)\n"
        f"hours={HOURS} per_hour={PER_HOUR} transactions={transactions}\n"
        f"simulate: {instrumented_s:.3f}s instrumented, {dark_s:.3f}s dark "
        f"(overhead {overhead:+.2%})\n"
        f"report:   {report_s:.3f}s\n"
        + obs.summary_table(registry, title="bench stage breakdown")
    )
