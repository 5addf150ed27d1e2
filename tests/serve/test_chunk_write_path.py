"""The chunk loop's write path: level-1 payloads and compact checkpoints.

Payloads are deflated at zlib level 1 in the ``np.savez_compressed``
archive layout, and the retention checkpoint is compact JSON.  Readers
are unchanged, so a store written the older way -- level-6
``np.savez_compressed`` payloads and an ``indent=2`` checkpoint --
resumes to the same digest and alert stream without ``--fresh``.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np
import pytest

from repro import cli, obs
from repro.core.dataset import MeasurementDataset
from repro.obs.runstore.chunks import ChunkStore
from repro.obs.runstore.store import RunStore, serialize_alerts
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.world.simulator import simulate_default_month

SERVE_HOURS = 24
PER_HOUR = 2
SEED = 20050101
CHUNK_HOURS = 4
RETAIN = 8


def _block(world, n_hours):
    """Block arrays with deterministic, nonzero contents."""
    arrays = MeasurementDataset.block_template(world, n_hours)
    rng = np.random.default_rng(3)
    for name, array in arrays.items():
        array[...] = rng.integers(0, 50, size=array.shape)
    return arrays


class TestPayloadRoundTrip:
    def test_committed_chunk_is_an_npz_of_the_same_arrays(
        self, world, tmp_path
    ):
        store = ChunkStore(tmp_path / "run")
        store.initialize({}, "fp")
        arrays = _block(world, 3)
        entry = store.commit(0, 3, arrays)
        path = store.chunks_dir / entry["file"]
        with zipfile.ZipFile(path) as archive:
            assert archive.namelist() == [f"{name}.npy" for name in arrays]
            assert {
                info.compress_type for info in archive.infolist()
            } == {zipfile.ZIP_DEFLATED}
        with np.load(path) as data:
            assert data.files == list(arrays)
            for name, original in arrays.items():
                loaded = data[name]
                assert loaded.dtype == original.dtype
                assert loaded.shape == original.shape
                np.testing.assert_array_equal(loaded, original)
        # The verified replay reads it back.
        (replayed_entry, replayed), = ChunkStore(tmp_path / "run").replay()
        assert replayed_entry["chain"] == entry["chain"]
        for name, original in arrays.items():
            np.testing.assert_array_equal(replayed[name], original)


class TestCheckpointBytes:
    def test_checkpoint_is_compact_sorted_json(self, world, tmp_path):
        store = ChunkStore(tmp_path / "run")
        store.initialize({}, "fp")
        store.commit(0, 2, _block(world, 2))
        record = store.write_checkpoint({
            "hour": 2,
            "detector": {"b": [1, 2.5], "a": {"z": None, "y": "x"}},
            "log": {
                "alerts": {"start": 0, "records": [{"z": 1, "a": [2.5]}]},
                "episodes": {"start": 0, "records": []},
            },
        })
        text = store.checkpoint_path.read_text()
        assert text == json.dumps(record, sort_keys=True) + "\n"
        assert store.load_checkpoint() == record
        # The log's records are compact sorted JSON lines, one segment
        # per stream that has any; the record keeps their counts.
        assert record["log"] == {"alerts": 1, "episodes": 0}
        (segment,) = store.log_dir.iterdir()
        assert segment.name == "alerts-00000000-00000001.jsonl"
        assert segment.read_text() == '{"a": [2.5], "z": 1}\n'

    def test_manifest_is_compact_sorted_json(self, world, tmp_path):
        store = ChunkStore(tmp_path / "run")
        store.initialize({"hours": 2}, "fp")
        store.commit(0, 2, _block(world, 2))
        text = store.manifest_path.read_text()
        assert text == json.dumps(store.load(), sort_keys=True) + "\n"


def _rewrite_as_parent(chunks):
    """Rewrite a store's files the way the level-6 writer left them:
    ``np.savez_compressed`` payloads and an ``indent=2`` checkpoint."""
    for name in chunks.payload_files():
        path = chunks.chunks_dir / name
        with np.load(path) as data:
            arrays = {field: data[field] for field in data.files}
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
    if chunks.checkpoint_path.is_file():
        record = json.loads(chunks.checkpoint_path.read_text())
        chunks.checkpoint_path.write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n"
        )


def _alerts_bytes(runs_dir, run_id):
    store = RunStore(runs_dir)
    manifest = store.load(run_id)
    return (store.run_dir(run_id) / manifest.alerts_file).read_bytes()


class TestResumeOverParentWrittenStore:
    @pytest.fixture(scope="class")
    def oracle_digest(self):
        return simulate_default_month(
            hours=SERVE_HOURS, per_hour=PER_HOUR, seed=SEED, workers=1
        ).dataset.digest()

    @pytest.mark.parametrize("retain_hours", [None, RETAIN])
    def test_resume_reaches_the_oracle_and_the_same_alerts(
        self, tmp_path, capsys, oracle_digest, retain_hours
    ):
        def config(runs_dir):
            return ServeConfig(
                hours=SERVE_HOURS, per_hour=PER_HOUR, seed=SEED,
                chunk_hours=CHUNK_HOURS, retain_hours=retain_hours,
                runs_dir=str(runs_dir),
            )

        def stop_at_16(daemon, entry):
            if entry["hour_stop"] >= 16:
                daemon.request_stop()

        obs.set_registry(obs.MetricsRegistry())
        first = ServeDaemon(config(tmp_path / "runs"),
                            chunk_callback=stop_at_16)
        first.prepare()
        assert first.run()["committed_hours"] == 16
        chunks = ChunkStore(first.store.run_dir(first.run_id))
        assert chunks.payload_files()
        assert chunks.checkpoint_path.is_file() == (retain_hours is not None)
        _rewrite_as_parent(chunks)

        code = cli.main([
            "serve", "--runs-dir", str(tmp_path / "runs"),
            "--resume", first.run_id, "--port", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "resuming at sim-hour 16" in out
        assert f"dataset digest: {oracle_digest}" in out

        obs.set_registry(obs.MetricsRegistry())
        reference = ServeDaemon(config(tmp_path / "reference"))
        reference.prepare()
        assert reference.run()["digest"] == oracle_digest
        assert _alerts_bytes(tmp_path / "runs", first.run_id) == (
            serialize_alerts(reference.detector.export()["lines"])
        )
