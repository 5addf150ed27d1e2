"""Service mode: chunk commits, the serve daemon, and the live read API.

The acceptance criteria live in :class:`TestKillAndResume` and
:class:`TestPlantedFaultSLO`: a daemon interrupted at an arbitrary
chunk boundary and resumed produces a final dataset digest (and alert
stream) bit-identical to the uninterrupted run, and a planted fault's
blame verdict is served on ``/blame`` within three sim-hours of onset
while the daemon is still running.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request
import weakref

import numpy as np
import pytest

from repro import cli, obs
from repro.core.dataset import MeasurementDataset, chain_seed, fold_block
from repro.obs.runstore.chunks import ChunkStore, ChunkStoreError
from repro.obs.runstore.store import RunStore, resolve_runs_dir, runs_index
from repro.serve.daemon import (
    ServeConfig,
    ServeDaemon,
    ServeError,
    hour_entity_stats_from_block,
    serve_run_id,
)
from repro.world.simulator import simulate_default_month
from tests.mappings import (
    dev_shm_entries,
    requires_proc_maps,
    shared_anonymous_mappings,
)

SERVE_HOURS = 24
PER_HOUR = 2
SEED = 20050101

#: The controlled fault the detection-latency SLO is scored against
#: (same spec as the CI online-detection job).
FAULT_HOURS = 48
FAULT_ONSET, FAULT_END = 12, 36
FAULT = f"server:berkeley.edu:{FAULT_ONSET}-{FAULT_END}:0.8"


def _get(port, path, timeout=10):
    """GET a JSON endpoint; returns (status, document)."""
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=timeout
        ) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


def _fresh_registry():
    obs.set_registry(obs.MetricsRegistry())


def _block(world, hour_start, hour_stop, fill=0):
    """A block-template arrays dict with deterministic contents."""
    arrays = MeasurementDataset.block_template(
        world, hour_stop - hour_start
    )
    for i, name in enumerate(sorted(arrays)):
        arrays[name][...] = (fill + i) % 7
    return arrays


class TestChunkStore:
    def test_commit_replay_round_trip(self, world, tmp_path):
        store = ChunkStore(tmp_path / "run")
        store.initialize({"hours": 6, "seed": 1}, "fp", run_id="abc")
        a = _block(world, 0, 4, fill=1)
        b = _block(world, 4, 6, fill=2)
        e1 = store.commit(0, 4, a)
        e2 = store.commit(4, 6, b)
        assert store.committed_hours() == 6
        assert e2["chain"] != e1["chain"]
        assert store.chain_digest() == e2["chain"]
        # A fresh reader replays the identical arrays, verified.
        reader = ChunkStore(tmp_path / "run")
        replayed = list(reader.replay())
        assert [e["hour_stop"] for e, _ in replayed] == [4, 6]
        for (_, arrays), original in zip(replayed, (a, b)):
            for name, arr in original.items():
                np.testing.assert_array_equal(arrays[name], arr)

    def test_chain_seed_binds_fingerprint_only(self, world, tmp_path):
        stores = [ChunkStore(tmp_path / name) for name in "abc"]
        stores[0].initialize({"seed": 1}, "fp")
        stores[1].initialize({"seed": 2, "chunk_hours": 3}, "fp")
        stores[2].initialize({"seed": 1}, "other-fp")
        block = _block(world, 0, 2)
        chains = [store.commit(0, 2, block)["chain"] for store in stores]
        # The chain is the dataset digest: the stored config cannot move
        # it (the daemon refuses config drift on its own), the world can.
        assert chains[0] == chains[1] != chains[2]
        assert chains[0] == fold_block(
            chain_seed("fp"), MeasurementDataset.block_digest(block)
        )

    def test_non_contiguous_and_empty_commits_refused(self, world, tmp_path):
        store = ChunkStore(tmp_path / "run")
        store.initialize({}, "fp")
        store.commit(0, 2, _block(world, 0, 2))
        with pytest.raises(ChunkStoreError, match="non-contiguous"):
            store.commit(3, 5, _block(world, 3, 5))
        with pytest.raises(ChunkStoreError, match="empty chunk"):
            store.commit(2, 2, _block(world, 2, 2))

    def test_orphan_npz_from_a_crash_is_overwritten(self, world, tmp_path):
        # Crash window: the npz landed but the manifest entry did not.
        store = ChunkStore(tmp_path / "run")
        store.initialize({}, "fp")
        orphan = store.chunks_dir / "chunk-0000-0002.npz"
        orphan.write_bytes(b"torn garbage from a killed process")
        assert store.committed_hours() == 0  # manifest is truth
        store.commit(0, 2, _block(world, 0, 2, fill=3))
        entry, arrays = next(iter(store.replay()))
        assert entry["hour_stop"] == 2
        assert int(arrays["transactions"][0, 0, 0]) >= 0  # loads clean

    def test_tampered_chunk_fails_replay(self, world, tmp_path):
        store = ChunkStore(tmp_path / "run")
        store.initialize({}, "fp")
        store.commit(0, 2, _block(world, 0, 2))
        tampered = _block(world, 0, 2, fill=5)
        with open(store.chunks_dir / "chunk-0000-0002.npz", "wb") as fh:
            np.savez_compressed(fh, **tampered)
        fresh = ChunkStore(tmp_path / "run")
        with pytest.raises(ChunkStoreError, match="digest mismatch"):
            list(fresh.replay())

    def test_truncated_manifest_breaks_the_chain(self, world, tmp_path):
        store = ChunkStore(tmp_path / "run")
        store.initialize({}, "fp")
        store.commit(0, 2, _block(world, 0, 2, fill=1))
        store.commit(2, 4, _block(world, 2, 4, fill=2))
        document = json.loads(store.manifest_path.read_text())
        del document["chunks"][0]  # drop the first committed chunk
        store.manifest_path.write_text(json.dumps(document))
        fresh = ChunkStore(tmp_path / "run")
        with pytest.raises(ChunkStoreError, match="not contiguous"):
            list(fresh.replay())

    @staticmethod
    def _three_chunks(world, tmp_path, prune_before=0):
        store = ChunkStore(tmp_path / "run")
        store.initialize({}, "fp")
        for h0 in (0, 2, 4):
            store.commit(h0, h0 + 2, _block(world, h0, h0 + 2, fill=h0))
        store.prune_payloads(prune_before)
        return store

    @staticmethod
    def _edited(store, edit):
        document = json.loads(store.manifest_path.read_text())
        edit(document)
        store.manifest_path.write_text(json.dumps(document))
        return ChunkStore(store.run_dir)

    def test_edited_hour_digest_in_a_pruned_entry_breaks_the_chain(
        self, world, tmp_path
    ):
        store = self._three_chunks(world, tmp_path, prune_before=4)

        def edit(document):
            document["chunks"][0]["hours"][1] = "0" * 64

        with pytest.raises(ChunkStoreError, match="breaks the digest chain"):
            list(self._edited(store, edit).replay(start_hour=4))

    def test_swapped_payload_fails_replay(self, world, tmp_path):
        store = self._three_chunks(world, tmp_path)
        first = store.chunks_dir / "chunk-0000-0002.npz"
        second = store.chunks_dir / "chunk-0002-0004.npz"
        a, b = first.read_bytes(), second.read_bytes()
        first.write_bytes(b)
        second.write_bytes(a)
        with pytest.raises(ChunkStoreError, match="digest mismatch"):
            list(ChunkStore(store.run_dir).replay())

    @pytest.mark.parametrize("prune_before", [0, 4])
    def test_truncated_hours_list_is_refused(
        self, world, tmp_path, prune_before
    ):
        store = self._three_chunks(world, tmp_path, prune_before)

        def edit(document):
            del document["chunks"][1]["hours"][1:]

        with pytest.raises(ChunkStoreError, match="lists 1 hour digest"):
            list(self._edited(store, edit).replay(start_hour=prune_before))

    def test_v1_manifest_is_refused_naming_fresh(self, world, tmp_path):
        store = self._three_chunks(world, tmp_path)

        def edit(document):
            document["schema"] = "repro.serve-chunks/1"

        with pytest.raises(ChunkStoreError, match="--fresh"):
            self._edited(store, edit).load()

    def test_checkpoint_from_another_history_is_refused(
        self, world, tmp_path
    ):
        store = self._three_chunks(world, tmp_path)
        store.write_checkpoint({"hour": 4})
        assert store.load_checkpoint()["chain"] == store.entries()[1]["chain"]
        other = ChunkStore(tmp_path / "other")
        other.initialize({}, "fp")
        for h0 in (0, 2):
            other.commit(h0, h0 + 2, _block(world, h0, h0 + 2, fill=9))
        other.checkpoint_path.write_text(store.checkpoint_path.read_text())
        with pytest.raises(ChunkStoreError, match="chain mismatch"):
            other.load_checkpoint()


class TestHourStatsFromBlock:
    def test_matches_the_emitter_semantics(self, world):
        arrays = MeasurementDataset.block_template(world, 2)
        arrays["transactions"][:, :, 0] = 40
        arrays["tcp_noconn"][1, 2, 0] = 3
        arrays["http_errors"][0, 0, 0] = 2
        stats = hour_entity_stats_from_block(arrays, 0)
        sites = len(world.websites)
        assert stats["ct"][0] == 40 * sites
        assert stats["cf"][0] == 2  # http error on client 0
        assert stats["cf"][1] == 3  # tcp failures on client 1
        assert stats["sf"][2] == 3
        assert stats["tcp"] == [[1, 2, 3]]
        empty = hour_entity_stats_from_block(arrays, 1)
        assert empty["tcp"] == [] and sum(empty["ct"]) == 0

    def test_hour_stats_stream_is_pinned(self):
        # The per-hour stats the detector folds from a batch dataset,
        # serialized hour by hour; the stream's bytes are pinned at the
        # default seed.
        dataset = simulate_default_month(
            hours=12, per_hour=PER_HOUR, seed=SEED, workers=1
        ).dataset
        arrays = dataset.arrays()
        stream = "".join(
            json.dumps(
                {"hour": h, **hour_entity_stats_from_block(arrays, h)},
                sort_keys=True,
            ) + "\n"
            for h in range(12)
        )
        assert hashlib.sha256(stream.encode("utf-8")).hexdigest() == (
            "3f9186b77cae3838b8f35d6230dba5a2a8d8f5cfad08cbe3eff8f1b5d0fcbbff"
        )


def _serve(config, **kwargs):
    _fresh_registry()
    daemon = ServeDaemon(config, **kwargs)
    return daemon


class TestServeDaemon:
    @pytest.fixture(scope="class")
    def batch_digest(self):
        result = simulate_default_month(
            hours=SERVE_HOURS, per_hour=PER_HOUR, seed=SEED, workers=1
        )
        return result.dataset.digest()

    def test_run_id_is_plan_addressed(self):
        base = ServeConfig(hours=24, per_hour=2, seed=1)
        assert serve_run_id(base) == serve_run_id(
            ServeConfig(hours=24, per_hour=2, seed=1, chunk_hours=3,
                        workers=4, port=9000, throttle_seconds=1.0)
        )
        assert serve_run_id(base) != serve_run_id(
            ServeConfig(hours=24, per_hour=2, seed=2)
        )

    def test_daemon_digest_matches_batch(self, batch_digest, tmp_path):
        daemon = _serve(ServeConfig(
            hours=SERVE_HOURS, per_hour=PER_HOUR, seed=SEED,
            chunk_hours=7,  # uneven split: last chunk is short
            runs_dir=str(tmp_path / "runs"),
        ))
        daemon.prepare()
        result = daemon.run()
        assert result["completed"]
        assert result["digest"] == batch_digest
        # The run record was finalized with the digest and alerts.
        manifest = daemon.store.load(daemon.run_id)
        assert manifest.dataset["digest"] == batch_digest
        assert manifest.dataset["provenance"]["serve"]["completed"]
        assert manifest.alerts_file == "alerts.jsonl"

    def test_rerun_without_resume_is_refused(self, tmp_path):
        config = ServeConfig(
            hours=6, per_hour=1, seed=SEED, chunk_hours=3,
            runs_dir=str(tmp_path / "runs"),
        )
        daemon = _serve(config, chunk_callback=lambda d, e: d.request_stop())
        daemon.prepare()
        daemon.run()
        again = _serve(config)
        with pytest.raises(ServeError, match="--resume"):
            again.prepare()
        # --fresh discards and starts over.
        fresh = _serve(config)
        fresh.prepare(fresh=True)
        assert fresh.cursor == 0


class TestKillAndResume:
    """Acceptance: SIGTERM at an arbitrary boundary, resume, same digest."""

    @pytest.mark.parametrize("stop_after_hours", [5, 20])
    def test_resume_digest_and_alerts_bit_identical(
        self, tmp_path, stop_after_hours
    ):
        config = ServeConfig(
            hours=SERVE_HOURS, per_hour=PER_HOUR, seed=SEED, chunk_hours=5,
            runs_dir=str(tmp_path / "runs"),
        )

        def stop_at(daemon, entry):
            if entry["hour_stop"] >= stop_after_hours:
                daemon.request_stop()

        first = _serve(config, chunk_callback=stop_at)
        first.prepare()
        interrupted = first.run()
        assert not interrupted["completed"]
        assert interrupted["committed_hours"] == stop_after_hours
        # An interrupted run is still a discoverable, resumable record.
        store = RunStore(resolve_runs_dir(config.runs_dir))
        assert store.resolve(first.run_id) == first.run_id
        manifest = store.load(first.run_id)
        serve_info = manifest.dataset["provenance"]["serve"]
        assert serve_info["committed_hours"] == stop_after_hours
        assert not serve_info["completed"]

        resumed = _serve(config)
        resumed.prepare(resume=True)
        assert resumed.cursor == stop_after_hours
        done = resumed.run()
        assert done["completed"]

        reference_dir = tmp_path / "reference"
        reference = _serve(ServeConfig(
            hours=SERVE_HOURS, per_hour=PER_HOUR, seed=SEED, chunk_hours=5,
            runs_dir=str(reference_dir),
        ))
        reference.prepare()
        uninterrupted = reference.run()
        assert done["digest"] == uninterrupted["digest"]
        assert done["chain"] == uninterrupted["chain"]
        # The replayed detector folded the identical hours, so the
        # alert stream is bit-identical too.
        assert (
            resumed.detector.export()["lines"]
            == reference.detector.export()["lines"]
        )

    def test_every_folded_block_is_a_fold_block_stage_call(self, tmp_path):
        """Replayed chunks count too: one stage call per folded block."""
        config = ServeConfig(
            hours=SERVE_HOURS, per_hour=PER_HOUR, seed=SEED, chunk_hours=5,
            runs_dir=str(tmp_path / "runs"),
        )

        def fold_calls():
            return obs.registry().counter(
                "stage_calls_total", stage="obs.online.detector.fold_block"
            ).value

        def stop_at(daemon, entry):
            if entry["hour_stop"] >= 10:
                daemon.request_stop()

        first = _serve(config, chunk_callback=stop_at)
        first.prepare()
        first.run()
        assert fold_calls() == 2
        resumed = _serve(config)
        resumed.prepare(resume=True)
        assert fold_calls() == 2  # the two committed chunks, replayed
        assert resumed.run()["completed"]
        # 2 replayed + 3 new blocks (hours 10-15, 15-20, 20-24).
        assert fold_calls() == 5

    def test_sigterm_sets_the_flag_and_stops_at_boundary(self, tmp_path):
        boundaries = []

        def kill_once(daemon, entry):
            boundaries.append(entry["hour_stop"])
            if len(boundaries) == 1:
                os.kill(os.getpid(), signal.SIGTERM)

        daemon = _serve(
            ServeConfig(
                hours=SERVE_HOURS, per_hour=1, seed=SEED, chunk_hours=4,
                runs_dir=str(tmp_path / "runs"),
            ),
            chunk_callback=kill_once,
        )
        daemon.prepare()
        before = {
            sig: signal.getsignal(sig)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        result = daemon.run()
        # Stopped at the first boundary after the signal; committed
        # work is durable; original handlers are back.
        assert not result["completed"]
        assert result["committed_hours"] == 4
        assert daemon.coordinator.signals_seen == [signal.SIGTERM]
        assert ChunkStore(
            daemon.store.run_dir(daemon.run_id)
        ).committed_hours() == 4
        for sig, handler in before.items():
            assert signal.getsignal(sig) == handler

    def test_fingerprint_drift_is_refused(self, tmp_path):
        config = ServeConfig(
            hours=6, per_hour=1, seed=SEED, chunk_hours=3,
            runs_dir=str(tmp_path / "runs"),
        )
        daemon = _serve(config, chunk_callback=lambda d, e: d.request_stop())
        daemon.prepare()
        daemon.run()
        chunks = ChunkStore(daemon.store.run_dir(daemon.run_id))
        document = json.loads(chunks.manifest_path.read_text())
        document["fingerprint_sha256"] = "0" * 64
        chunks.manifest_path.write_text(json.dumps(document))
        stale = _serve(config)
        with pytest.raises(ServeError, match="fingerprint"):
            stale.prepare(resume=True)


class TestPooledChunks:
    """Chunks at ``workers=2`` are counted in the two anonymous shared
    slot mappings of the daemon's pool, or record their demotion to
    in-process shards."""

    @pytest.fixture(scope="class")
    def batch_digest(self):
        return simulate_default_month(
            hours=SERVE_HOURS, per_hour=PER_HOUR, seed=SEED, workers=1
        ).dataset.digest()

    def _config(self, tmp_path, chunk_hours=6):
        return ServeConfig(
            hours=SERVE_HOURS, per_hour=PER_HOUR, seed=SEED,
            chunk_hours=chunk_hours, workers=2,
            runs_dir=str(tmp_path / "runs"),
        )

    def test_fallback_recorded_and_shown(
        self, batch_digest, tmp_path, capsys, monkeypatch
    ):
        from repro.world import parallel

        def broken(payloads):
            raise OSError("pool refused")

        monkeypatch.setattr(parallel, "_pool_dispatch", broken)
        daemon = _serve(self._config(tmp_path))
        daemon.prepare()
        result = daemon.run()
        assert result["completed"]
        assert result["chain"] == result["digest"] == batch_digest
        manifest = daemon.store.load(daemon.run_id)
        fallback = manifest.dataset["provenance"]["parallel_fallback"]
        assert fallback["shards"] == 2
        capsys.readouterr()
        code = cli.main([
            "runs", "--runs-dir", str(tmp_path / "runs"), "show",
            daemon.run_id,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fallback:" in out
        assert "pool refused" in out

    @requires_proc_maps
    def test_block_unlinked_after_completed_run(
        self, batch_digest, tmp_path, monkeypatch
    ):
        # The daemon's pool holds two slot mappings for the whole run,
        # both allocated before its workers fork and none after run()
        # returns.  A slot is reused by the chunk after next, so no
        # chunk's arrays may outlive its commit and fold: the detector
        # keeps no views and the daemon drops its own.
        before_names = dev_shm_entries()
        before = shared_anonymous_mappings()
        views, held, alive = [], [], []
        real_commit = ChunkStore.commit

        def commit(store, hour_start, hour_stop, arrays):
            views.append([weakref.ref(a) for a in arrays.values()])
            return real_commit(store, hour_start, hour_stop, arrays)

        def callback(daemon, entry):
            held.append(shared_anonymous_mappings() - before)
            alive.append(sum(ref() is not None for ref in views[-1]))

        monkeypatch.setattr(ChunkStore, "commit", commit)
        daemon = _serve(self._config(tmp_path), chunk_callback=callback)
        daemon.prepare()
        result = daemon.run()
        assert result["completed"]
        assert result["digest"] == batch_digest
        manifest = daemon.store.load(daemon.run_id)
        assert "parallel_fallback" not in manifest.dataset["provenance"]
        chunks = SERVE_HOURS // 6
        assert held == [2] * chunks
        assert alive == [0] * chunks
        assert shared_anonymous_mappings() == before
        assert dev_shm_entries() <= before_names

    @requires_proc_maps
    def test_block_unlinked_after_stop_mid_run(self, tmp_path):
        before_names = dev_shm_entries()
        before = shared_anonymous_mappings()
        daemon = _serve(
            self._config(tmp_path),
            chunk_callback=lambda d, e: d.request_stop(),
        )
        daemon.prepare()
        result = daemon.run()
        assert not result["completed"]
        assert result["committed_hours"] == 6
        assert shared_anonymous_mappings() == before
        assert dev_shm_entries() <= before_names

    @pytest.mark.parametrize("chunk_hours", [1, 6])
    def test_chunk_replay_dtypes_match_a_fresh_dataset(
        self, tmp_path, chunk_hours
    ):
        # One-hour chunks are one shard, six-hour chunks two; both
        # commit, and replay, a fresh dataset's dtypes.
        daemon = _serve(self._config(tmp_path, chunk_hours))
        daemon.prepare()
        assert daemon.run()["completed"]
        fresh = MeasurementDataset(daemon.world).arrays()
        replayed = list(daemon.chunks.replay())
        assert len(replayed) == SERVE_HOURS // chunk_hours
        for _entry, arrays in replayed:
            assert {n: a.dtype for n, a in arrays.items()} == {
                n: a.dtype for n, a in fresh.items()
            }


class TestOneDigest:
    """Serve's final digest, its chunk chain, and the batch digest are
    one value at any chunk size, retention setting and kill point."""

    @pytest.fixture(scope="class")
    def batch_digest(self):
        digest = simulate_default_month(
            hours=SERVE_HOURS, per_hour=PER_HOUR, seed=SEED, workers=1
        ).dataset.digest()
        assert digest == (
            "0aad425977fd9f11ba249362dbc6e14ca7687550123be8847b13d1ffb75462ae"
        )
        return digest

    @pytest.mark.parametrize("retain_hours", [None, 6])
    @pytest.mark.parametrize("chunk_hours", [1, 5, 7])
    def test_serve_digest_is_the_batch_digest_across_kill_and_resume(
        self, tmp_path, batch_digest, chunk_hours, retain_hours
    ):
        config = ServeConfig(
            hours=SERVE_HOURS, per_hour=PER_HOUR, seed=SEED,
            chunk_hours=chunk_hours, retain_hours=retain_hours,
            runs_dir=str(tmp_path / "runs"),
        )

        def stop_at(daemon, entry):
            if entry["hour_stop"] >= 11:
                daemon.request_stop()

        first = _serve(config, chunk_callback=stop_at)
        first.prepare()
        assert not first.run()["completed"]
        resumed = _serve(config)
        resumed.prepare(resume=True)
        done = resumed.run()
        assert done["completed"]
        assert done["digest"] == done["chain"] == batch_digest
        manifest = resumed.store.load(resumed.run_id)
        assert manifest.dataset["digest"] == batch_digest
        serve_info = manifest.dataset["provenance"]["serve"]
        assert serve_info["rolling_digest"] == batch_digest

    def test_runs_diff_of_batch_and_serve_is_identical(
        self, tmp_path, capsys
    ):
        runs = str(tmp_path / "runs")
        plan = ["--hours", "12", "--per-hour", "1", "--seed", str(SEED)]

        def value(out, prefix, index=2):
            line = next(
                l for l in out.splitlines() if l.startswith(prefix)
            )
            return line.split()[index]

        assert cli.main(["--runs-dir", runs, "simulate", *plan]) == 0
        out = capsys.readouterr().out
        batch_id = value(out, "run recorded:")
        batch_digest = value(out, "dataset digest:")
        assert cli.main([
            "serve", "--runs-dir", runs, *plan, "--chunk-hours", "5",
            "--retain-hours", "4",
        ]) == 0
        out = capsys.readouterr().out
        serve_id = value(out, "serve run:")
        assert value(out, "dataset digest:") == batch_digest
        assert value(out, "chunk chain:") == batch_digest
        assert cli.main(["runs", "--runs-dir", runs, "diff", batch_id, serve_id]) == 0
        assert "digest: IDENTICAL" in capsys.readouterr().out


class TestPlantedFaultSLO:
    """Acceptance: the blame verdict is on /blame within 3 sim-hours."""

    def test_blame_verdict_served_within_three_hours_of_onset(
        self, tmp_path
    ):
        observed = []

        def scrape(daemon, entry):
            status, blame = _get(daemon.server.port, "/blame")
            assert status == 200
            observed.append((entry["hour_stop"], blame["verdict"]))
            status, episodes = _get(daemon.server.port, "/episodes")
            assert status == 200
            if blame["verdict"] == "server" and entry["hour_stop"] >= 16:
                # Verdict confirmed mid-run; no need to simulate the
                # remaining fault window.
                daemon.request_stop()

        daemon = _serve(
            ServeConfig(
                hours=FAULT_HOURS, per_hour=PER_HOUR, seed=SEED,
                fault=FAULT, chunk_hours=1,
                runs_dir=str(tmp_path / "runs"),
            ),
            chunk_callback=scrape,
        )
        daemon.prepare()
        daemon.run()
        verdict_hour = next(
            hour for hour, verdict in observed if verdict == "server"
        )
        assert verdict_hour <= FAULT_ONSET + 3, (
            f"blame verdict first served at sim-hour {verdict_hour}, "
            f"more than 3h after onset at {FAULT_ONSET}: {observed}"
        )
        # The berkeley.edu episode itself is on /episodes with its
        # onset inside the planted window.
        episodes = daemon.detector.episodes_document()["episodes"]
        planted = [
            e for e in episodes
            if e["side"] == "server" and e["entity"] == "berkeley.edu"
        ]
        assert planted
        assert any(
            FAULT_ONSET <= e["onset_hour"] <= FAULT_ONSET + 3
            for e in planted
        )


    def test_alert_stream_bytes_are_pinned(self, tmp_path):
        """The serve alert stream of the CI plan, pinned byte for byte."""
        daemon = _serve(ServeConfig(
            hours=FAULT_HOURS, per_hour=PER_HOUR, seed=SEED, fault=FAULT,
            chunk_hours=6, runs_dir=str(tmp_path / "runs"),
        ))
        daemon.prepare()
        assert daemon.run()["completed"]
        body = daemon.store.run_dir(daemon.run_id) / "alerts.jsonl"
        assert hashlib.sha256(body.read_bytes()).hexdigest() == (
            "f679b74d2c088c78bf6684b0521161bfd5befc58e7f5d86c739919dc402478a0"
        )


class TestHTTPSurface:
    @pytest.fixture()
    def running_daemon(self, tmp_path):
        """A daemon paused at its first chunk boundary, server up."""
        gate = threading.Event()
        release = threading.Event()

        def pause(daemon, entry):
            if entry["hour_stop"] == 4:
                gate.set()
                release.wait(timeout=30)
                daemon.request_stop()

        daemon = _serve(
            ServeConfig(
                hours=SERVE_HOURS, per_hour=1, seed=SEED, chunk_hours=4,
                runs_dir=str(tmp_path / "runs"),
            ),
            chunk_callback=pause,
        )
        daemon.prepare()
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        assert gate.wait(timeout=60)
        yield daemon
        release.set()
        thread.join(timeout=60)
        assert not thread.is_alive()

    def test_status_healthz_and_404(self, running_daemon):
        port = running_daemon.server.port
        status, health = _get(port, "/healthz")
        assert status == 200 and health["ok"]
        assert health["api"] == "repro.live-api/1"
        status, doc = _get(port, "/status")
        assert status == 200
        assert doc["run_id"] == running_daemon.run_id
        assert doc["state"] == "running"
        assert doc["committed_hours"] == 4
        assert doc["sim_clock_hour"] == 4
        assert doc["chunk_hours"] == 4
        assert doc["chunks_committed"] == 1
        assert doc["chain"] == running_daemon.chunks.chain_digest()
        assert doc["sim_hours_per_second"] is None or (
            doc["sim_hours_per_second"] > 0
        )
        status, index = _get(port, "/")
        assert status == 200
        assert "/episodes" in index["endpoints"]
        status, missing = _get(port, "/definitely-not-a-route")
        assert status == 404
        assert "no such endpoint" in missing["error"]
        assert sorted(missing["endpoints"]) == sorted(index["endpoints"])

    def test_runs_endpoint_shares_the_cli_serializer(self, running_daemon):
        port = running_daemon.server.port
        status, doc = _get(port, "/runs")
        assert status == 200
        expected = runs_index(running_daemon.store)
        assert doc["count"] == expected["count"] == 1
        assert doc["runs"] == json.loads(json.dumps(expected["runs"]))
        record = doc["runs"][0]
        assert record["run_id"] == running_daemon.run_id
        assert record["command"] == "serve"

    def test_concurrent_scrapes_do_not_tear_or_perturb(self, tmp_path):
        # Hammer /metrics + /episodes + /status from several threads for
        # the whole run; the digest must equal an unscraped run's.
        errors = []

        def hammer(port, stop):
            while not stop.is_set():
                for path in ("/metrics", "/episodes", "/status", "/blame"):
                    try:
                        with urllib.request.urlopen(
                            f"http://127.0.0.1:{port}{path}", timeout=10
                        ) as resp:
                            body = resp.read()
                            if path != "/metrics":
                                json.loads(body)  # parseable, never torn
                    except Exception as exc:  # noqa: BLE001 - collected
                        errors.append(f"{path}: {exc!r}")
                        return

        stop = threading.Event()
        threads = []

        def start_hammers(daemon, entry):
            if not threads:
                for _ in range(3):
                    t = threading.Thread(
                        target=hammer, args=(daemon.server.port, stop),
                        daemon=True,
                    )
                    t.start()
                    threads.append(t)
            if entry["hour_stop"] >= daemon.config.hours:
                # Final chunk: drain the hammers before the daemon tears
                # the server down, so shutdown races don't read as errors.
                stop.set()
                for t in threads:
                    t.join(timeout=30)

        scraped = _serve(
            ServeConfig(
                hours=12, per_hour=PER_HOUR, seed=SEED, chunk_hours=2,
                runs_dir=str(tmp_path / "scraped"),
            ),
            chunk_callback=start_hammers,
        )
        scraped.prepare()
        result = scraped.run()
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert not errors, errors
        assert scraped.server.scrapes > 0

        quiet = _serve(ServeConfig(
            hours=12, per_hour=PER_HOUR, seed=SEED, chunk_hours=2,
            runs_dir=str(tmp_path / "quiet"),
        ))
        quiet.prepare()
        assert quiet.run()["digest"] == result["digest"]


class TestServeCli:
    def test_end_to_end_and_resume_of_a_finished_run(
        self, tmp_path, capsys
    ):
        runs = str(tmp_path / "runs")
        code = cli.main([
            "serve", "--runs-dir", runs, "--hours", "10", "--per-hour", "1",
            "--seed", str(SEED), "--chunk-hours", "4", "--port", "0",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "serve run: " in captured.out
        run_id = next(
            line.split()[-1] for line in captured.out.splitlines()
            if line.startswith("serve run:")
        )
        digest_line = next(
            line for line in captured.out.splitlines()
            if line.startswith("dataset digest:")
        )
        assert "serving the live API on http://127.0.0.1:" in captured.err
        # Rerunning the identical plan without --resume is refused ...
        assert cli.main([
            "serve", "--runs-dir", runs, "--hours", "10", "--per-hour", "1",
            "--seed", str(SEED), "--chunk-hours", "4",
        ]) == 2
        assert "--resume" in capsys.readouterr().err
        # ... and --resume of the finished run reprints the same digest
        # (nothing to simulate, config restored from the run itself).
        assert cli.main([
            "serve", "--runs-dir", runs, "--resume", run_id[:6],
        ]) == 0
        resumed_out = capsys.readouterr().out
        assert digest_line in resumed_out

    def test_runs_list_json_matches_runs_endpoint_shape(
        self, tmp_path, capsys
    ):
        runs = str(tmp_path / "runs")
        assert cli.main([
            "serve", "--runs-dir", runs, "--hours", "4", "--per-hour", "1",
            "--seed", str(SEED), "--chunk-hours", "4",
        ]) == 0
        capsys.readouterr()
        assert cli.main(["runs", "--runs-dir", runs, "list", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 1
        record = doc["runs"][0]
        assert record["command"] == "serve"
        assert record["config"]["hours"] == 4
        assert record["dataset_digest"]
        assert record["alerts"]["count"] is not None
        # Bit-for-bit the shared serializer's output.
        store = RunStore(runs)
        assert doc == json.loads(json.dumps(runs_index(store)))

    def test_unknown_resume_ref_is_a_usage_error(self, tmp_path, capsys):
        assert cli.main([
            "serve", "--runs-dir", str(tmp_path / "none"),
            "--resume", "deadbeef",
        ]) == 2
        assert "repro serve:" in capsys.readouterr().err


class TestBatchServeMetricsShutdown:
    def test_sigterm_mid_simulate_rides_the_keyboard_interrupt_path(
        self, tmp_path, capsys, monkeypatch
    ):
        # --serve-metrics installs the raise_interrupt coordinator; a
        # SIGTERM mid-run must tear down cleanly (exit 130, live
        # session stopped, no manifest written) instead of dying.
        import repro.cli as cli_mod

        def fake_simulate(args):
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(5)  # the converted KeyboardInterrupt lands here
            raise AssertionError("signal should interrupt before this")

        monkeypatch.setattr(cli_mod, "cmd_simulate", fake_simulate)
        before = signal.getsignal(signal.SIGTERM)
        code = cli.main([
            "--runs-dir", str(tmp_path / "runs"),
            "simulate", "--hours", "8", "--per-hour", "1",
            "--serve-metrics", "0",
        ])
        assert code == 130
        captured = capsys.readouterr()
        assert "interrupted" in captured.err
        assert "run recorded" not in captured.out
        # Handlers restored for the rest of the test session.
        assert signal.getsignal(signal.SIGTERM) == before


class TestRetentionAndHorizon:
    """Acceptance: bounded disk under --retain-hours, checkpointed
    resume across a pruning boundary, /history + /slo bit-identical at
    any worker count, and the digest == the batch digest."""

    RETAIN = 8

    def _config(self, tmp_path, **kw):
        base = dict(
            hours=SERVE_HOURS, per_hour=PER_HOUR, seed=SEED, chunk_hours=4,
            retain_hours=self.RETAIN, runs_dir=str(tmp_path / "runs"),
        )
        base.update(kw)
        return ServeConfig(**base)

    def test_payloads_pruned_chain_intact_digest_matches_batch(
        self, tmp_path
    ):
        daemon = _serve(self._config(tmp_path))
        daemon.prepare()
        result = daemon.run()
        assert result["completed"]
        # Retention never touches what is simulated: the chain over the
        # pruned store is the batch dataset's digest.
        oracle = simulate_default_month(
            hours=SERVE_HOURS, per_hour=PER_HOUR, seed=SEED, workers=1
        ).dataset
        assert result["digest"] == result["chain"] == oracle.digest()
        # Disk is bounded: only the last RETAIN hours of payloads
        # survive, but every chain entry does.
        chunks = ChunkStore(daemon.store.run_dir(daemon.run_id))
        assert chunks.pruned_hours() == SERVE_HOURS - self.RETAIN
        kept = chunks.payload_files()
        assert kept == [
            f"chunk-{h:04d}-{h + 4:04d}.npz"
            for h in range(SERVE_HOURS - self.RETAIN, SERVE_HOURS, 4)
        ]
        assert len(chunks.entries()) == SERVE_HOURS // 4
        assert chunks.load_checkpoint() is not None
        serve_info = daemon.store.load(
            daemon.run_id
        ).dataset["provenance"]["serve"]
        assert serve_info["retain_hours"] == self.RETAIN
        assert serve_info["pruned_hours"] == SERVE_HOURS - self.RETAIN
        assert serve_info["rolling_digest"] == result["digest"]

    @pytest.mark.parametrize("resume_workers", [1, 4])
    def test_resume_across_pruning_boundary_bit_identical(
        self, tmp_path, resume_workers
    ):
        # Stop at hour 16 with retain 8: hours [0, 8) are already
        # pruned, so the resume MUST come from the checkpoint.
        def stop_at(daemon, entry):
            if entry["hour_stop"] >= 16:
                daemon.request_stop()

        first = _serve(self._config(tmp_path), chunk_callback=stop_at)
        first.prepare()
        interrupted = first.run()
        assert interrupted["committed_hours"] == 16
        chunks = ChunkStore(first.store.run_dir(first.run_id))
        assert chunks.pruned_hours() == 8
        # The pruned prefix is unreplayable without the checkpoint.
        with pytest.raises(ChunkStoreError, match="retention checkpoint"):
            list(chunks.replay())

        resumed = _serve(self._config(tmp_path, workers=resume_workers))
        resumed.prepare(resume=True)
        assert resumed.cursor == 16
        done = resumed.run()
        assert done["completed"]

        reference = _serve(self._config(tmp_path, runs_dir=str(
            tmp_path / "reference"
        )))
        reference.prepare()
        oracle = reference.run()
        assert done["digest"] == oracle["digest"]
        assert done["chain"] == oracle["chain"]
        assert (
            resumed.detector.export()["lines"]
            == reference.detector.export()["lines"]
        )
        for params in (
            {"series": "overall", "res": "hour"},
            {"series": "client", "res": "6h"},
            {"series": "region", "res": "day"},
        ):
            assert json.dumps(
                resumed.history.document(params), sort_keys=True
            ) == json.dumps(
                reference.history.document(params), sort_keys=True
            )
        assert json.dumps(
            resumed.slo.document(), sort_keys=True
        ) == json.dumps(reference.slo.document(), sort_keys=True)

    def test_indefinite_requires_retention_and_cycles_epochs(
        self, tmp_path, monkeypatch
    ):
        import repro.serve.daemon as daemon_mod

        with pytest.raises(ServeError, match="retention"):
            ServeDaemon(ServeConfig(
                hours=0, runs_dir=str(tmp_path / "runs")
            ))
        # A 10-hour epoch makes the boundary crossings cheap to test.
        monkeypatch.setattr(daemon_mod, "DEFAULT_HOURS", 10)

        def stop_at(daemon, entry):
            if entry["hour_stop"] >= 24:
                daemon.request_stop()

        daemon = _serve(
            self._config(tmp_path, hours=0, per_hour=1, chunk_hours=4),
            chunk_callback=stop_at,
        )
        daemon.prepare()
        result = daemon.run()
        assert not result["completed"]
        assert result["committed_hours"] >= 24
        assert daemon.epoch_hours == 10
        # Chunks never straddle an epoch boundary ...
        chunks = ChunkStore(daemon.store.run_dir(daemon.run_id))
        for entry in chunks.entries():
            h0, h1 = int(entry["hour_start"]), int(entry["hour_stop"])
            assert h0 // 10 == (h1 - 1) // 10
        # ... and a retained sim-hour h is bit-identical to epoch hour
        # h % 10 (the fault and RNG streams recur each epoch).
        from repro.world.parallel import run_block

        epoch, _ = run_block(daemon.simulator, 0, 10, workers=1)
        for entry, arrays in chunks.replay(start_hour=chunks.pruned_hours()):
            h0 = int(entry["hour_start"])
            for t in range(int(entry["hour_stop"]) - h0):
                e = (h0 + t) % 10
                assert np.array_equal(
                    arrays["transactions"][..., t],
                    epoch["transactions"][..., e],
                )
        status = daemon.status_document()
        assert status["hours_total"] is None
        assert status["eta_seconds"] is None
        assert status["epoch_hours"] == 10
        assert status["retention"]["retain_hours"] == self.RETAIN

    def test_live_history_slo_and_serve_gauges(self, tmp_path):
        gate = threading.Event()
        release = threading.Event()

        def pause(daemon, entry):
            if entry["hour_stop"] == 12:
                gate.set()
                release.wait(timeout=30)
                daemon.request_stop()

        daemon = _serve(
            self._config(tmp_path, per_hour=1), chunk_callback=pause
        )
        daemon.prepare()
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        try:
            assert gate.wait(timeout=60)
            port = daemon.server.port
            status, slo = _get(port, "/slo")
            assert status == 200
            assert slo["api"] == "repro.live-api/1"
            assert slo["schema"] == "repro.slo/1"
            assert slo["hours_folded"] == 12
            assert slo["sides"]["client"]["availability"] is not None
            status, history = _get(port, "/history?series=overall&res=6h")
            assert status == 200
            assert history["schema"] == "repro.history/1"
            assert history["point_count"] == 2
            assert sum(p["hours"] for p in history["points"]) == 12
            status, sliced = _get(
                port, "/history?series=overall&res=hour&from=4&to=8"
            )
            assert [p["hour_start"] for p in sliced["points"]] == [4, 5, 6, 7]
            status, bad = _get(port, "/history?res=fortnight")
            assert status == 400
            assert "fortnight" in bad["error"]
            status, index = _get(port, "/")
            assert "/history" in index["endpoints"]
            assert "/slo" in index["endpoints"]
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=10
            ) as resp:
                exposition = resp.read().decode("utf-8")
            for needle in (
                "repro_serve_committed_hours 12",
                "repro_serve_chain_length 3",
                "repro_serve_resumed 0",
                "repro_serve_last_chunk_seconds",
                "repro_serve_pruned_chunks 1",
                f"repro_serve_retain_hours {self.RETAIN}",
                'repro_history_cells{res="hour"} 12',
                'repro_slo_availability{side="client"}',
                'repro_slo_burn_rate{window="6h"}',
            ):
                assert needle in exposition, needle
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()

    def test_slo_cli_matches_live_engine(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        daemon = _serve(self._config(tmp_path))
        daemon.prepare()
        daemon.run()
        live = daemon.slo.document()
        assert cli.main(["slo", "--runs-dir", runs, "latest", "--json"]) == 0
        rebuilt = json.loads(capsys.readouterr().out)
        assert rebuilt == json.loads(json.dumps(live))
        # The human table renders and names the worst entities.
        assert cli.main(["slo", "--runs-dir", runs, daemon.run_id]) == 0
        table = capsys.readouterr().out
        assert "SLO objective" in table and "burn rates" in table

    def test_slo_cli_on_a_batch_run_is_a_clear_error(
        self, tmp_path, capsys
    ):
        runs = str(tmp_path / "runs")
        assert cli.main([
            "--runs-dir", runs, "simulate", "--hours", "4",
            "--per-hour", "1",
        ]) == 0
        capsys.readouterr()
        assert cli.main(["slo", "--runs-dir", runs, "latest"]) == 2
        err = capsys.readouterr().err
        assert "no chunk store" in err

    def test_timeline_degrades_gracefully_after_pruning(
        self, tmp_path, capsys
    ):
        runs = str(tmp_path / "runs")
        daemon = _serve(self._config(tmp_path))
        daemon.prepare()
        daemon.run()
        capsys.readouterr()
        assert cli.main([
            "runs", "--runs-dir", runs, "show", daemon.run_id, "--timeline",
        ]) == 0
        out = capsys.readouterr().out
        assert "retention pruned the first 16 sim-hour(s)" in out
        assert "repro slo" in out

    def test_resume_inherits_recorded_retention_policy(self, tmp_path):
        runs = str(tmp_path / "runs")
        # --hours 0 without --retain-hours is refused at the CLI too.
        assert cli.main([
            "serve", "--runs-dir", runs, "--hours", "0", "--per-hour", "1",
        ]) == 2
        config = self._config(tmp_path, hours=0, per_hour=1)
        daemon = _serve(
            config, chunk_callback=lambda d, e: d.request_stop()
        )
        daemon.prepare()
        daemon.run()
        chunks = ChunkStore(daemon.store.run_dir(daemon.run_id))
        assert chunks.retention() == {"retain_hours": self.RETAIN}
        # A bare --resume (no --retain-hours flag) restores the policy
        # from the run's own manifest record.
        from repro.serve.cli import _resume_config

        class _Args:
            runs_dir = runs
            workers = None

        _, restored = _resume_config(_Args(), daemon.run_id)
        assert restored.retain_hours == self.RETAIN
        assert restored.hours == 0
