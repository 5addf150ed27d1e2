"""The daemon's pipelined chunk loop: one pool per run, two slots.

``ServeDaemon.run`` forks one :class:`~repro.world.parallel.BlockPool`
and submits chunk k+1 into the other slot before it commits, folds and
checkpoints chunk k.  Pinned here:

* the chain equals the batch digest at workers {1, 2} x chunk hours
  {1, 6, 7} x retention on/off, and over indefinite epochs -- 7-hour
  chunks end with a short chunk read through a reused slot;
* no worker process outlives ``run()``, whichever way it ends, and a
  stop never commits the prefetched chunk;
* the fallbacks: no ``fork`` runs the whole run in-process and records
  it once; an ``OverflowError`` re-runs only its own chunk;
* the stage rows, spans, lanes and chunk timings under prefetch.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro import obs
from repro.core.dataset import (
    MeasurementDataset,
    chain_seed,
    fingerprint_sha256,
    fold_block,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.runstore.chunks import ChunkStore
from repro.obs.tracing import Tracer
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.world import parallel
from repro.world.simulator import simulate_default_month
from tests.mappings import requires_proc_maps, shared_anonymous_mappings

SERVE_HOURS = 24
PER_HOUR = 2
SEED = 20050101
BATCH_DIGEST = (
    "0aad425977fd9f11ba249362dbc6e14ca7687550123be8847b13d1ffb75462ae"
)


@pytest.fixture(scope="module")
def batch_digest():
    digest = simulate_default_month(
        hours=SERVE_HOURS, per_hour=PER_HOUR, seed=SEED, workers=1
    ).dataset.digest()
    assert digest == BATCH_DIGEST
    return digest


@pytest.fixture
def registry():
    """A fresh registry for one daemon run."""
    fresh = MetricsRegistry()
    old = obs.set_registry(fresh)
    yield fresh
    obs.set_registry(old)


def _daemon(tmp_path, chunk_callback=None, resume=False, **overrides):
    config = dict(
        hours=SERVE_HOURS, per_hour=PER_HOUR, seed=SEED, chunk_hours=6,
        runs_dir=str(tmp_path / "runs"),
    )
    config.update(overrides)
    daemon = ServeDaemon(ServeConfig(**config), chunk_callback=chunk_callback)
    daemon.prepare(resume=resume)
    return daemon


def _stop_at(hour):
    def callback(daemon, entry):
        if entry["hour_stop"] >= hour:
            daemon.request_stop()

    return callback


def _stage_calls(registry, stage):
    return registry.counter("stage_calls_total", stage=stage).value


class TestDeterminismMatrix:
    @pytest.mark.parametrize("retain_hours", [None, 6])
    @pytest.mark.parametrize("chunk_hours", [1, 6, 7])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_chain_is_the_batch_digest(
        self, tmp_path, batch_digest, registry, workers, chunk_hours,
        retain_hours,
    ):
        daemon = _daemon(
            tmp_path, workers=workers, chunk_hours=chunk_hours,
            retain_hours=retain_hours,
        )
        result = daemon.run()
        assert result["completed"]
        assert result["chain"] == result["digest"] == batch_digest
        assert registry.counter("parallel_fallback_total").value == 0
        entries = daemon.chunks.entries()
        assert [e["hour_stop"] for e in entries] == [
            min(h + chunk_hours, SERVE_HOURS)
            for h in range(0, SERVE_HOURS, chunk_hours)
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_indefinite_epochs_chain_the_epoch_hours(
        self, tmp_path, monkeypatch, registry, workers
    ):
        # A 10-hour epoch in 4-hour chunks: [8, 10) and [18, 20) are
        # short chunks cut at the boundary, through reused slots.
        import repro.serve.daemon as daemon_mod

        monkeypatch.setattr(daemon_mod, "DEFAULT_HOURS", 10)
        daemon = _daemon(
            tmp_path, _stop_at(24), hours=0, per_hour=1, chunk_hours=4,
            retain_hours=8, workers=workers,
        )
        result = daemon.run()
        assert result["committed_hours"] == 24
        epoch, _ = parallel.run_block(daemon.simulator, 0, 10, workers=1)
        hours = MeasurementDataset.block_digest(epoch)
        expected = fold_block(
            chain_seed(fingerprint_sha256(daemon.world)),
            [hours[h % 10] for h in range(24)],
        )
        assert result["chain"] == expected


class TestLifecycle:
    """No worker outlives run(), and a stop never commits the prefetch."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_pool_for_the_whole_run(self, tmp_path, registry, workers):
        pids, masks = [], []

        def callback(daemon, entry):
            children = multiprocessing.active_children()
            pids.append(sorted(p.pid for p in children))
            if hasattr(os, "sched_getaffinity"):
                masks.extend(os.sched_getaffinity(p.pid) for p in children)

        daemon = _daemon(tmp_path, callback, workers=workers)
        assert daemon.run()["completed"]
        assert len(pids) == SERVE_HOURS // 6
        assert len(pids[0]) == workers
        assert all(seen == pids[0] for seen in pids)  # forked once
        assert multiprocessing.active_children() == []
        # A worker moves off its parent's CPU but keeps every CPU allowed.
        assert all(mask == os.sched_getaffinity(0) for mask in masks)

    @requires_proc_maps
    @pytest.mark.parametrize("workers", [1, 2])
    def test_stop_discards_the_prefetched_chunk(
        self, tmp_path, batch_digest, registry, workers
    ):
        before = shared_anonymous_mappings()
        daemon = _daemon(tmp_path, _stop_at(12), workers=workers)
        result = daemon.run()
        assert not result["completed"]
        assert result["committed_hours"] == 12
        assert multiprocessing.active_children() == []
        assert shared_anonymous_mappings() == before
        # The chunk [12, 18) was in flight: nothing of it is on disk and
        # the manifests end at the stop boundary.
        store = ChunkStore(daemon.store.run_dir(daemon.run_id))
        assert [e["hour_stop"] for e in store.entries()] == [6, 12]
        assert not [
            p.name for p in store.chunks_dir.iterdir()
            if p.name.startswith("chunk-0012")
        ]
        serve_info = daemon.store.load(
            daemon.run_id
        ).dataset["provenance"]["serve"]
        assert serve_info["committed_hours"] == 12
        assert serve_info["chain"] == store.chain_digest()
        # Its shards were never collected: no stage row counts them.
        assert _stage_calls(registry, "simulate.shard") == 2 * workers
        assert _stage_calls(registry, "simulate.dns") == 12

        resumed = _daemon(tmp_path, resume=True, workers=workers)
        assert resumed.cursor == 12
        done = resumed.run()
        assert done["completed"]
        assert done["digest"] == done["chain"] == batch_digest
        assert multiprocessing.active_children() == []

    def test_commit_failure_leaves_no_worker(
        self, tmp_path, registry, monkeypatch
    ):
        real_commit = ChunkStore.commit

        def commit(store, hour_start, hour_stop, arrays):
            if hour_start == 6:
                raise OSError("disk full")
            return real_commit(store, hour_start, hour_stop, arrays)

        monkeypatch.setattr(ChunkStore, "commit", commit)
        daemon = _daemon(tmp_path, workers=2)
        with pytest.raises(OSError, match="disk full"):
            daemon.run()
        assert multiprocessing.active_children() == []
        assert daemon.chunks.committed_hours() == 6
        assert parallel._BLOCK_POOL is None

    def test_keyboard_interrupt_leaves_no_worker(self, tmp_path, registry):
        def interrupt(daemon, entry):
            raise KeyboardInterrupt

        daemon = _daemon(tmp_path, interrupt)
        with pytest.raises(KeyboardInterrupt):
            daemon.run()
        assert multiprocessing.active_children() == []
        assert daemon.status_document()["state"] == "stopped"
        assert daemon.chunks.committed_hours() == 6
        assert parallel._BLOCK_POOL is None


_REAL_SIMULATE_SHARD = parallel._simulate_shard


def _overflow_in_child_at_hour_6(payload, sink=None):
    """A slot overflow for the chunk starting at hour 6, in a worker only.

    Module-level so the forked worker finds it as the patched
    ``_simulate_shard``; the in-process re-run is the real shard.
    """
    if payload[0] == 6 and multiprocessing.parent_process() is not None:
        raise OverflowError("count past the planned dtype")
    return _REAL_SIMULATE_SHARD(payload, sink)


class TestFallback:
    def test_no_fork_runs_in_process_and_records_once(
        self, tmp_path, batch_digest, registry, monkeypatch
    ):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        daemon = _daemon(tmp_path, workers=2)
        result = daemon.run()
        assert result["completed"]
        assert result["digest"] == batch_digest
        assert registry.counter("parallel_fallback_total").value == 1
        fallback = daemon.store.load(
            daemon.run_id
        ).dataset["provenance"]["parallel_fallback"]
        assert "fork" in fallback["reason"]
        assert fallback["shards"] == 2
        assert _stage_calls(registry, "simulate.shard") == 2 * 4

    def test_overflow_reruns_only_its_chunk(
        self, tmp_path, batch_digest, registry, monkeypatch
    ):
        monkeypatch.setattr(
            parallel, "_simulate_shard", _overflow_in_child_at_hour_6
        )
        pids = []

        def callback(daemon, entry):
            pids.append(
                sorted(p.pid for p in multiprocessing.active_children())
            )

        daemon = _daemon(tmp_path, callback)
        result = daemon.run()
        assert result["completed"]
        assert result["digest"] == batch_digest
        assert registry.counter("parallel_fallback_total").value == 1
        fallback = daemon.store.load(
            daemon.run_id
        ).dataset["provenance"]["parallel_fallback"]
        assert fallback["reason"].startswith("OverflowError(")
        # The worker kept serving the chunks after the demoted one.
        assert len(pids[0]) == 1 and all(seen == pids[0] for seen in pids)
        assert _stage_calls(registry, "simulate.shard") == 4


class TestMetricsUnderPrefetch:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_shard_recorded_and_merged_once(
        self, tmp_path, registry, workers
    ):
        tracer = Tracer()
        tracer.enable(keep_in_memory=True)
        with obs.use(None, tracer):
            assert _daemon(tmp_path, workers=workers).run()["completed"]
        chunks = SERVE_HOURS // 6
        assert _stage_calls(registry, "serve.chunk") == chunks
        assert _stage_calls(registry, "simulate.shard") == chunks * workers
        assert _stage_calls(registry, "simulate.dns") == SERVE_HOURS
        shard_spans = tracer.find("simulate.shard")
        assert len(shard_spans) == chunks * workers
        chunk_ids = {s.span_id for s in tracer.find("serve.chunk")}
        assert all(s.parent_id in chunk_ids for s in shard_spans)
        covered = sorted(
            h for s in shard_spans
            for h in range(s.attrs["hour_start"], s.attrs["hour_stop"])
        )
        assert covered == list(range(SERVE_HOURS))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lanes_describe_the_chunk_in_flight(
        self, tmp_path, registry, workers
    ):
        lanes = []

        def callback(daemon, entry):
            lanes.append(daemon.status_document()["lanes"])

        daemon = _daemon(tmp_path, callback, workers=workers)
        assert daemon.run()["completed"]
        if workers == 1:
            assert lanes[0] == [[6, 12]]
        else:
            assert lanes[0] == [[6, 9], [9, 12]]
        assert lanes[-1] == []  # the last commit has nothing in flight
        assert daemon.status_document()["lanes"] == []

    def test_chunk_seconds_run_from_commit_to_commit(
        self, tmp_path, registry
    ):
        # The throttle sleeps between commits while the next chunk is
        # in flight, so commit-to-commit intervals include it.
        seen = []

        def callback(daemon, entry):
            status = daemon.status_document()
            seen.append((
                daemon._last_chunk_seconds,
                status["sim_hours_per_second"],
                status["eta_seconds"],
                status["committed_hours"],
            ))

        daemon = _daemon(tmp_path, callback, throttle_seconds=0.2)
        assert daemon.run()["completed"]
        for n, (last, rate, eta, committed) in enumerate(seen[1:], 2):
            # n commits span at least n - 1 throttle sleeps.
            assert last >= 0.2
            assert rate <= committed / (0.2 * (n - 1))
            assert eta == pytest.approx((SERVE_HOURS - committed) / rate)
