"""Tests for the hour-sharded parallel engine.

The determinism contract under test: for one master seed, the dataset
is bit-identical for any worker count -- sequential, process-pool
parallel, and the in-process fallback all agree array-for-array.  The
fallback is reached the way users hit it: a pool dispatch that fails.
"""

import gc
import json
import mmap
import multiprocessing
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from repro import obs
from repro.core.dataset import MeasurementDataset
from repro.obs.metrics import MetricsRegistry
from repro.world import parallel
from repro.world.defaults import build_default_world
from repro.world.entities import World
from repro.world.faults import FaultGenerator, GroundTruth
from repro.world.outcome_model import AccessConfig
from repro.world.rng import RNGRegistry
from repro.world.simulator import MonthSimulator
from tests.mappings import (
    dev_shm_entries,
    requires_proc_maps,
    shared_anonymous_mappings,
)

HOURS = 36
SEED = 318


@pytest.fixture(scope="module")
def small_world():
    return build_default_world(hours=HOURS)


@pytest.fixture(scope="module")
def small_truth(small_world):
    rngs = RNGRegistry(SEED)
    return FaultGenerator(small_world, rngs=rngs.fork("faults")).generate()


def _simulator(small_world, small_truth):
    return MonthSimulator(
        small_world,
        access=AccessConfig(per_hour=1),
        rngs=RNGRegistry(SEED),
        truth=small_truth,
    )


@pytest.fixture(scope="module")
def sequential(small_world, small_truth):
    return _simulator(small_world, small_truth).run()


def _dtypes(dataset):
    return {name: a.dtype for name, a in dataset.arrays().items()}


def _refuse_pool(payloads):
    raise OSError("pool refused")


@pytest.fixture
def broken_pool(monkeypatch):
    """Every pool dispatch fails: pooled runs demote to in-process."""
    monkeypatch.setattr(parallel, "_pool_dispatch", _refuse_pool)


class TestShardPlanning:
    def test_blocks_cover_exactly(self):
        for hours, workers in ((744, 4), (24, 2), (10, 3), (7, 7), (5, 9)):
            shards = parallel.plan_shards(hours, workers)
            assert shards[0][0] == 0
            assert shards[-1][1] == hours
            for (_, a_stop), (b_start, _) in zip(shards, shards[1:]):
                assert a_stop == b_start  # contiguous, no gap, no overlap
            assert sum(h1 - h0 for h0, h1 in shards) == hours

    def test_near_equal_blocks(self):
        shards = parallel.plan_shards(744, 4)
        sizes = [h1 - h0 for h0, h1 in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_workers_capped_at_hours(self):
        assert len(parallel.plan_shards(3, 8)) == 3

    def test_zero_hours(self):
        assert parallel.plan_shards(0, 4) == []

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            parallel.plan_shards(10, 0)
        with pytest.raises(ValueError):
            parallel.plan_shards(-1, 2)

    def test_default_workers_floor(self):
        assert parallel.default_workers(1) == 1
        assert parallel.default_workers(0) == 1
        assert parallel.default_workers(744) >= 1
        assert parallel.default_workers(744) <= max(
            1, 744 // parallel.MIN_HOURS_PER_SHARD
        )


class TestDeterminism:
    """MonthSimulator parallel and sequential paths produce array-identical
    datasets for the same seed at workers 1, 2, and 4."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_invariance(
        self, small_world, small_truth, sequential, workers
    ):
        result = _simulator(small_world, small_truth).run(workers=workers)
        for name in MeasurementDataset._ARRAY_FIELDS:
            ours = getattr(result.dataset, name)
            theirs = getattr(sequential.dataset, name)
            assert (np.asarray(ours) == np.asarray(theirs)).all(), name
        assert result.dataset.digest() == sequential.dataset.digest()

    def test_pool_failure_fallback_identical(
        self, small_world, small_truth, sequential, broken_pool
    ):
        sim = _simulator(small_world, small_truth)
        result = sim.run(workers=3)
        assert result.dataset.provenance["parallel_fallback"]["shards"] == 3
        assert result.dataset.digest() == sequential.dataset.digest()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_batch_dtypes_are_the_narrowest_fit(
        self, small_world, small_truth, workers, tmp_path
    ):
        # Every path starts at the one dtype plan (planned_dtypes) and
        # no count here outgrows it, so in-process, pooled and reloaded
        # datasets all carry a fresh dataset's dtypes.
        result = _simulator(small_world, small_truth).run(workers=workers)
        path = str(tmp_path / "month.npz")
        result.dataset.save(path)
        loaded = MeasurementDataset.load(path, small_world)
        assert _dtypes(result.dataset) == _dtypes(
            MeasurementDataset(small_world)
        )
        assert _dtypes(loaded) == _dtypes(result.dataset)

    def test_fallback_dtypes_are_the_narrowest_fit(
        self, small_world, small_truth, broken_pool
    ):
        result = _simulator(small_world, small_truth).run(workers=2)
        assert "parallel_fallback" in result.dataset.provenance
        assert _dtypes(result.dataset) == _dtypes(
            MeasurementDataset(small_world)
        )

    def test_one_dtype_plan(self, small_world):
        planned = MeasurementDataset.planned_dtypes(small_world, 1)
        template = MeasurementDataset.block_template(small_world, 3)
        assert {n: a.dtype for n, a in template.items()} == planned
        assert _dtypes(MeasurementDataset(small_world)) == planned

    def test_rerun_identical(self, small_world, small_truth):
        """Per-hour fresh streams make run() itself repeatable on one
        simulator instance (the cached-generator engine was not)."""
        sim = _simulator(small_world, small_truth)
        assert sim.run().dataset.digest() == sim.run().dataset.digest()


class TestShardExecution:
    def test_run_shard_matches_sequential_slice(
        self, small_world, small_truth, sequential
    ):
        sim = _simulator(small_world, small_truth)
        shard = sim.run_shard(10, 20)
        expected = sequential.dataset.transactions[..., 10:20]
        assert (shard.arrays["transactions"] == expected).all()
        assert shard.hour_start == 10 and shard.hour_stop == 20
        assert shard.transactions == int(expected.sum(dtype=np.int64))

    def test_run_shard_rejects_bad_block(self, small_world, small_truth):
        sim = _simulator(small_world, small_truth)
        with pytest.raises(ValueError):
            sim.run_shard(-1, 5)
        with pytest.raises(ValueError):
            sim.run_shard(5, HOURS + 1)

    def test_shard_arrays_are_hour_sliced(self, small_world, small_truth):
        shard = _simulator(small_world, small_truth).run_shard(0, 12)
        assert shard.arrays["transactions"].shape[-1] == 12
        assert shard.arrays["replica_connections"].shape[-1] == 12
        assert set(shard.arrays) == set(MeasurementDataset._ARRAY_FIELDS)


class TestRunBlock:
    """Offset blocks, the serve chunk unit, through shared memory."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_offset_block_equals_batch_slice(
        self, small_world, small_truth, sequential, workers
    ):
        h0, h1 = 7, 29
        arrays, fallback = parallel.run_block(
            _simulator(small_world, small_truth), h0, h1, workers=workers
        )
        assert fallback is None
        assert set(arrays) == set(MeasurementDataset._ARRAY_FIELDS)
        for name, block in arrays.items():
            expected = getattr(sequential.dataset, name)[..., h0:h1]
            assert block.shape == expected.shape, name
            assert np.array_equal(block, expected), name

    def test_fallback_returned_to_caller(
        self, small_world, small_truth, sequential, broken_pool
    ):
        arrays, fallback = parallel.run_block(
            _simulator(small_world, small_truth), 5, 20, workers=2
        )
        assert fallback == {"reason": "OSError('pool refused')", "shards": 2}
        assert np.array_equal(
            arrays["transactions"],
            sequential.dataset.transactions[..., 5:20],
        )

    def test_undersized_plan_demotes_to_in_process_shards(
        self, small_world, small_truth, sequential, monkeypatch
    ):
        # A plan too narrow for the counts: the pooled buffer cannot
        # promote, so a worker raises OverflowError and the block
        # demotes; the in-process sink promotes from the same plan.
        narrow = {
            name: np.dtype(np.uint8)
            for name in MeasurementDataset._ARRAY_FIELDS
        }
        assert max(
            int(a.max()) for a in sequential.dataset.arrays().values()
        ) > np.iinfo(np.uint8).max
        monkeypatch.setattr(
            MeasurementDataset, "planned_dtypes",
            classmethod(lambda cls, world, per_hour: dict(narrow)),
        )
        registry = MetricsRegistry()
        with obs.use(registry):
            result = _simulator(small_world, small_truth).run(workers=2)
        fallback = result.dataset.provenance["parallel_fallback"]
        assert fallback["reason"].startswith("OverflowError(")
        assert fallback["shards"] == 2
        assert registry.counter("parallel_fallback_total").value == 1
        assert result.dataset.digest() == sequential.dataset.digest()
        assert parallel._BLOCK_POOL is None

    def test_rejects_block_outside_experiment(self, small_world, small_truth):
        with pytest.raises(ValueError):
            parallel.run_block(
                _simulator(small_world, small_truth), 0, HOURS + 1
            )


class TestObservability:
    def test_outcome_metrics_match_sequential(
        self, small_world, small_truth, broken_pool
    ):
        # Per-worker timing metrics (simulate_shard_seconds,
        # simulate_worker_cpu_seconds_total) are wall-clock and exist
        # only under parallel runs; the equivalence contract covers the
        # outcome counters.
        timing = ("simulate_shard_seconds", "simulate_worker_cpu_seconds")

        def totals(runner):
            registry = MetricsRegistry()
            with obs.use(registry):
                runner()
            snap = registry.snapshot()
            return {
                k: v for k, v in snap.items()
                if (k.startswith("simulate_") or k == (
                    'stage_calls_total{stage="simulate.dns"}'
                )) and not k.startswith(timing)
            }

        seq = totals(lambda: _simulator(small_world, small_truth).run())
        par = totals(
            lambda: _simulator(small_world, small_truth).run(workers=3)
        )
        assert seq == par

    def test_shard_spans_in_trace(
        self, small_world, small_truth, broken_pool
    ):
        from repro.obs.tracing import Tracer

        tracer = Tracer()
        tracer.enable(keep_in_memory=True)
        with obs.use(None, tracer):
            _simulator(small_world, small_truth).run(workers=2)
        shard_spans = tracer.find("simulate.shard")
        assert len(shard_spans) == 2
        blocks = sorted(
            (s.attrs["hour_start"], s.attrs["hour_stop"]) for s in shard_spans
        )
        assert blocks == parallel.plan_shards(HOURS, 2)

    @pytest.mark.parametrize("path", ["pooled", "fallback"])
    def test_shard_row_counted_once(
        self, small_world, small_truth, monkeypatch, path
    ):
        """Each shard's stage row comes from the shard that ran, once.

        The parent's ``simulate.shard`` spans are placed in the trace
        from the shards' own timings and add nothing to the metrics.
        """
        from repro.obs.tracing import Tracer

        if path == "fallback":
            monkeypatch.setattr(parallel, "_pool_dispatch", _refuse_pool)
        registry, tracer = MetricsRegistry(), Tracer()
        tracer.enable(keep_in_memory=True)
        with obs.use(registry, tracer):
            result = _simulator(small_world, small_truth).run(workers=2)
        fell_back = "parallel_fallback" in result.dataset.provenance
        assert fell_back == (path == "fallback")
        assert registry.counter(
            "stage_calls_total", stage="simulate.shard"
        ).value == 2
        shard_spans = tracer.find("simulate.shard")
        assert len(shard_spans) == 2
        (month,) = tracer.find("simulate.month")
        for shard in shard_spans:
            assert shard.parent_id == month.span_id
            assert shard.duration == pytest.approx(
                shard.attrs["worker_seconds"], abs=1e-6
            )

    def test_provenance_records_workers(
        self, small_world, small_truth, broken_pool
    ):
        result = _simulator(small_world, small_truth).run(workers=2)
        assert result.dataset.provenance["workers"] == 2
        assert result.dataset.provenance["master_seed"] == SEED


class TestWorkerClamp:
    """default_workers must never oversubscribe the affinity mask."""

    def test_env_override_clamped_to_one_cpu(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert parallel.default_workers(744) == 1

    def test_env_override_within_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cpus", lambda: 8)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert parallel.default_workers(744) == 2

    def test_env_override_clamped_to_shard_floor(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cpus", lambda: 16)
        monkeypatch.setenv("REPRO_WORKERS", "16")
        assert parallel.default_workers(48) == 2

    def test_invalid_env_ignored(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        assert parallel.default_workers(744) == 2

    def test_never_exceeds_cpus_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        assert parallel.default_workers(744) == 1


class TestShardPlanProperty:
    def test_blocks_exactly_cover_hour_range(self):
        """Property sweep: shards partition [0, hours) for any inputs."""
        rng = np.random.default_rng(20050101)
        cases = [(1, 1), (1, 50), (8760, 1), (8760, 64)]
        cases += [
            (int(rng.integers(1, 2000)), int(rng.integers(1, 64)))
            for _ in range(200)
        ]
        for hours, workers in cases:
            shards = parallel.plan_shards(hours, workers)
            assert shards[0][0] == 0
            assert shards[-1][1] == hours
            covered = []
            for h0, h1 in shards:
                assert h0 < h1, "no empty blocks"
                covered.extend(range(h0, h1))
            assert covered == list(range(hours)), (hours, workers)


_REAL_SIMULATE_SHARD = parallel._simulate_shard


def _crash_in_child(payload, sink=None):
    """Pool task that dies hard in workers but works in the parent.

    Module-level so fork workers can unpickle it by reference; the
    parent (in-process fallback) must still produce correct results.
    """
    if multiprocessing.parent_process() is not None:
        os._exit(13)
    return _REAL_SIMULATE_SHARD(payload, sink)


def _slots_cleared():
    return parallel._BLOCK_POOL is None


#: A pooled run in a fresh interpreter: which resource tracker it
#: started and which ``/dev/shm`` names it left.
_POOLED_RUN = """
import json, sys
from multiprocessing import resource_tracker
from repro.world import parallel
from repro.world.defaults import build_default_world
from repro.world.simulator import MonthSimulator
from tests.mappings import dev_shm_entries
before = dev_shm_entries()
sim = MonthSimulator(build_default_world(hours=4))
arrays, fallback = parallel.run_block(sim, 0, 4, workers=2)
json.dump({
    "fallback": fallback,
    "tracker_pid": resource_tracker._resource_tracker._pid,
    "new_dev_shm": sorted(dev_shm_entries() - before),
}, sys.stdout)
"""


class TestSharedMemoryLifecycle:
    """The pooled block buffer is one anonymous shared mapping: nothing
    named is ever linked under /dev/shm, and the mapping lives exactly
    as long as the arrays that view it."""

    @requires_proc_maps
    def test_block_unlinked_on_success(self, small_world, small_truth):
        before_names = dev_shm_entries()
        before = shared_anonymous_mappings()
        result = _simulator(small_world, small_truth).run(workers=2)
        assert result.dataset.provenance.get("parallel_fallback") is None
        assert dev_shm_entries() <= before_names
        assert _slots_cleared()
        # The dataset's arrays are the mapping the workers wrote.
        mapping = result.dataset.transactions.base
        assert isinstance(mapping, mmap.mmap)
        assert all(
            array.base is mapping for array in result.dataset.arrays().values()
        )
        assert shared_anonymous_mappings() == before + 1
        released = weakref.ref(mapping)
        del mapping, result
        gc.collect()
        assert released() is None
        assert shared_anonymous_mappings() == before

    @requires_proc_maps
    def test_block_unlinked_on_worker_crash(
        self, small_world, small_truth, sequential, monkeypatch
    ):
        monkeypatch.setattr(parallel, "_simulate_shard", _crash_in_child)
        before_names = dev_shm_entries()
        before = shared_anonymous_mappings()
        registry = MetricsRegistry()
        with obs.use(registry):
            result = _simulator(small_world, small_truth).run(workers=2)
        assert dev_shm_entries() <= before_names
        assert shared_anonymous_mappings() == before
        assert _slots_cleared()
        # The crash demoted the run to the in-process fallback, which
        # must still produce the canonical dataset -- and say so.
        assert result.dataset.digest() == sequential.dataset.digest()
        assert registry.counter("parallel_fallback_total").value == 1
        fallback = result.dataset.provenance["parallel_fallback"]
        assert fallback["shards"] == 2
        assert "reason" in fallback

    @requires_proc_maps
    def test_block_unlinked_on_keyboard_interrupt(
        self, small_world, small_truth, monkeypatch
    ):
        def interrupted(payloads):
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel, "_pool_dispatch", interrupted)
        before_names = dev_shm_entries()
        before = shared_anonymous_mappings()
        with pytest.raises(KeyboardInterrupt):
            _simulator(small_world, small_truth).run(workers=2)
        gc.collect()
        assert dev_shm_entries() <= before_names
        assert shared_anonymous_mappings() == before
        assert _slots_cleared()

    def test_pooled_run_names_nothing(self):
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [sys.executable, "-c", _POOLED_RUN], cwd=root, env=env,
            capture_output=True, text=True, timeout=300, check=True,
        )
        report = json.loads(done.stdout)
        assert report == {
            "fallback": None, "tracker_pid": None, "new_dev_shm": [],
        }


def _refuse_pickle(self, protocol):
    raise AssertionError(f"{type(self).__name__} crossed the process pipe")


class TestInheritedSimulator:
    """Forked workers inherit the block's simulator; payloads carry hours."""

    @pytest.fixture
    def unpicklable_world(self, monkeypatch):
        monkeypatch.setattr(World, "__reduce_ex__", _refuse_pickle)
        monkeypatch.setattr(GroundTruth, "__reduce_ex__", _refuse_pickle)

    def test_world_never_pickled_for_a_pooled_run(
        self, small_world, small_truth, sequential, unpicklable_world
    ):
        registry = MetricsRegistry()
        with obs.use(registry):
            result = _simulator(small_world, small_truth).run(workers=2)
        assert "parallel_fallback" not in result.dataset.provenance
        assert registry.counter("parallel_fallback_total").value == 0
        assert result.dataset.digest() == sequential.dataset.digest()

    def test_world_never_pickled_for_an_offset_block(
        self, small_world, small_truth, sequential, unpicklable_world
    ):
        arrays, fallback = parallel.run_block(
            _simulator(small_world, small_truth), 6, 18, workers=2
        )
        assert fallback is None
        for name, block in arrays.items():
            expected = getattr(sequential.dataset, name)[..., 6:18]
            assert np.array_equal(block, expected), name

    def test_payloads_are_hour_ranges_and_slot_is_parked(
        self, small_world, small_truth, monkeypatch
    ):
        sim = _simulator(small_world, small_truth)
        seen = []
        real_dispatch = parallel._pool_dispatch

        def recording(payloads):
            seen.append((parallel._BLOCK_POOL.simulator, list(payloads)))
            return real_dispatch(payloads)

        monkeypatch.setattr(parallel, "_pool_dispatch", recording)
        parallel.run_block(sim, 0, HOURS, workers=2)
        [(parked, payloads)] = seen
        assert parked is sim
        assert [(h0, h1, i) for h0, h1, i, _block in payloads] == [
            (h0, h1, i)
            for i, (h0, h1) in enumerate(parallel.plan_shards(HOURS, 2))
        ]
        assert parallel._BLOCK_POOL is None

    def test_no_fork_demotes_in_process(
        self, small_world, small_truth, sequential, monkeypatch
    ):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        registry = MetricsRegistry()
        with obs.use(registry):
            result = _simulator(small_world, small_truth).run(workers=2)
        fallback = result.dataset.provenance["parallel_fallback"]
        assert "fork" in fallback["reason"]
        assert fallback["shards"] == 2
        assert registry.counter("parallel_fallback_total").value == 1
        assert result.dataset.digest() == sequential.dataset.digest()


class TestFallbackObservability:
    def test_fallback_counted_and_stamped(
        self, small_world, small_truth, sequential, broken_pool
    ):
        registry = MetricsRegistry()
        with obs.use(registry):
            result = _simulator(small_world, small_truth).run(workers=3)
        assert registry.counter("parallel_fallback_total").value == 1
        fallback = result.dataset.provenance["parallel_fallback"]
        assert "pool refused" in fallback["reason"]
        assert fallback["shards"] == 3
        assert result.dataset.digest() == sequential.dataset.digest()
        assert parallel._BLOCK_POOL is None

    def test_no_fallback_stamp_on_clean_run(self, small_world, small_truth):
        result = _simulator(small_world, small_truth).run(workers=2)
        assert "parallel_fallback" not in result.dataset.provenance
