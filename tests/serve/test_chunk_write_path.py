"""The chunk loop's write path: stored narrow payloads and compact
checkpoints with binary array leaves.

Payloads are stored (not deflated) in the ``np.savez`` archive layout,
each field at the narrowest unsigned dtype holding it, and the
retention checkpoint is compact JSON whose numeric vectors are base64
array leaves.  The hour digests are dtype-blind, so the chain does not
move, and every reader folds at any stored dtype.  A store written the
older way -- level-6 ``np.savez_compressed`` payloads and an
``indent=2`` checkpoint -- resumes to the same digest and alert stream
without ``--fresh``.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np
import pytest

from repro import cli, obs
from repro.core.dataset import MeasurementDataset
from repro.obs.horizon.history import HistoryStore
from repro.obs.horizon.slo import SLOEngine
from repro.obs.online.detector import OnlineDetector
from repro.obs.runstore.chunks import (
    ARRAY_LEAF,
    ChunkStore,
    ChunkStoreError,
    dumps_record,
    loads_record,
    narrowest,
)
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
            } == {zipfile.ZIP_STORED}
        with np.load(path) as data:
            assert data.files == list(arrays)
            for name, original in arrays.items():
                loaded = data[name]
                # Every count is below 50: each field narrows to uint8.
                assert loaded.dtype == np.uint8
                assert loaded.shape == original.shape
                np.testing.assert_array_equal(loaded, original)
        # The verified replay reads it back.
        (replayed_entry, replayed), = ChunkStore(tmp_path / "run").replay()
        assert replayed_entry["chain"] == entry["chain"]
        for name, original in arrays.items():
            np.testing.assert_array_equal(replayed[name], original)


class TestNarrowing:
    @pytest.mark.parametrize("top, dtype", [
        (0, np.uint8), (255, np.uint8), (256, np.uint16),
        (65535, np.uint16), (65536, np.uint32), (2**32 - 1, np.uint32),
    ])
    def test_a_field_takes_the_narrowest_dtype_holding_its_maximum(
        self, top, dtype
    ):
        for wide in (np.uint32, np.int64):
            array = np.zeros((2, 3, 4), dtype=wide)
            array[1, 2, 3] = top
            narrowed = narrowest(array)
            assert narrowed.dtype == (
                dtype if np.dtype(dtype).itemsize < np.dtype(wide).itemsize
                else wide
            )
            np.testing.assert_array_equal(narrowed, array)

    def test_what_no_narrower_dtype_holds_keeps_its_dtype(self):
        for array in (
            np.array([2**32], dtype=np.int64),
            np.array([-1, 3], dtype=np.int64),
            np.zeros((0, 3), dtype=np.uint16),
            np.array([255], dtype=np.uint8),
            np.array([2.5, 3.0]),
        ):
            assert narrowest(array) is array

    def test_fields_at_the_bounds_commit_and_replay_exactly(
        self, world, tmp_path
    ):
        planned = MeasurementDataset.block_template(world, 3)
        assert planned["replica_connections"].dtype == np.uint32
        bounds = {
            "transactions": (255, np.uint8),
            "dns_ldns": (256, np.uint16),
            "tcp_noconn": (65535, np.uint16),
            "replica_connections": (65536, np.uint32),
            "replica_failed_connections": (65535, np.uint16),
            "http_errors": (0, np.uint8),  # all zero
        }
        for name, (top, _) in bounds.items():
            planned[name].reshape(-1)[-1] = top
        store = ChunkStore(tmp_path / "run")
        store.initialize({}, "fp")
        entry = store.commit(0, 3, planned)
        assert entry["hours"] == MeasurementDataset.block_digest(planned)
        (_, replayed), = ChunkStore(tmp_path / "run").replay()
        for name, original in planned.items():
            expected = bounds.get(name, (None, np.uint8))[1]
            assert replayed[name].dtype == expected, name
            np.testing.assert_array_equal(replayed[name], original)


def _fold(arrays, n_hours):
    history, slo = HistoryStore(), SLOEngine()
    detector = OnlineDetector(observers=[history, slo])
    detector.fold_block(arrays, 0)
    return {
        "alerts": detector.export(),
        "detector": detector.export_state(),
        "history": history.export_state(),
        "slo": slo.export_state(),
        "hours": MeasurementDataset.block_digest(arrays),
    }


class TestNarrowedPayloadsFold:
    @pytest.mark.parametrize("scale", [1, 300])
    def test_folding_a_narrowed_chunk_matches_the_planned_dtypes(
        self, world, tmp_path, scale
    ):
        # scale 300 lifts most fields past uint8, some past uint16.
        dataset = simulate_default_month(
            hours=12, per_hour=PER_HOUR, seed=SEED, workers=1
        ).dataset
        planned = {}
        for name, array in dataset.arrays().items():
            scaled = array.astype(np.int64) * scale
            assert scaled.max() <= np.iinfo(array.dtype).max
            planned[name] = scaled.astype(array.dtype)
        store = ChunkStore(tmp_path / "run")
        store.initialize({}, "fp")
        store.commit(0, 12, planned)
        (_, narrowed), = ChunkStore(tmp_path / "run").replay()
        assert any(
            narrowed[n].dtype != planned[n].dtype for n in planned
        )
        assert _fold(narrowed, 12) == _fold(planned, 12)


def _bits(array):
    return (array.dtype.str, array.shape, array.tobytes())


class TestArrayLeaves:
    ARRAYS = {
        "rates": np.array(
            [[np.nan, -0.0, np.inf], [1 / 3, 5e-324, -np.inf]]
        ),
        "payload_nan": np.array(
            [0x7FF8000000000123, 0xFFF0000000000001], dtype=np.uint64
        ).view(np.float64),
        "counts": np.arange(12, dtype=np.int64).reshape(3, 4) - 6,
        "flags": np.array([True, False]),
        "narrow": np.array([0, 255], dtype=np.uint8),
        "empty": np.empty((0, 5)),
        "scalar": np.array(2.5),
        "big_endian": np.array([1.5, np.nan], dtype=">f8"),
        "strided": np.arange(10.0)[::3],
    }

    def test_records_round_trip_every_bit(self):
        text = dumps_record({"state": self.ARRAYS, "n": [1, 2.5, None]})
        back = loads_record(text)
        assert back["n"] == [1, 2.5, None]
        for name, original in self.ARRAYS.items():
            restored = back["state"][name]
            little = original.astype(original.dtype.newbyteorder("<"))
            assert _bits(restored) == _bits(little), name
            assert restored.flags.writeable
        # No NaN or Infinity token: the text is strict JSON.

        def refuse(token):
            raise AssertionError(f"non-finite number text {token}")

        json.loads(text, parse_constant=refuse)

    def test_a_leaf_is_dtype_shape_and_base64_bytes(self):
        leaf = json.loads(dumps_record(np.array([[1, 2]], dtype=np.uint8)))
        assert leaf == {ARRAY_LEAF: {
            "dtype": "|u1", "shape": [1, 2], "data": "AQI=",
        }}

    def test_checkpoints_and_segments_keep_nan_bits(self, world, tmp_path):
        store = ChunkStore(tmp_path / "run")
        store.initialize({}, "fp")
        store.commit(0, 2, _block(world, 2))
        record = store.write_checkpoint({
            "hour": 2,
            "detector": {"rates": self.ARRAYS["payload_nan"]},
            "log": {"cells.hour": {"start": 0, "records": [
                {"t": self.ARRAYS["counts"]}, {"t": self.ARRAYS["rates"]},
            ]}},
        })
        assert record["schema"] == "repro.serve-checkpoint/3"
        loaded = ChunkStore(tmp_path / "run").load_checkpoint()
        assert _bits(loaded["detector"]["rates"]) == _bits(
            self.ARRAYS["payload_nan"]
        )
        (first, records), = store.read_log(loaded["log"]).values()
        assert first == 0
        assert _bits(records[0]["t"]) == _bits(self.ARRAYS["counts"])
        assert _bits(records[1]["t"]) == _bits(self.ARRAYS["rates"])

    def test_a_malformed_leaf_is_refused(self, world, tmp_path):
        store = ChunkStore(tmp_path / "run")
        store.initialize({}, "fp")
        store.commit(0, 2, _block(world, 2))
        store.write_checkpoint({"hour": 2, "x": np.zeros(3)})
        text = store.checkpoint_path.read_text()
        store.checkpoint_path.write_text(text.replace('"shape": [3]',
                                                      '"shape": [4]'))
        with pytest.raises(ChunkStoreError, match="array leaf"):
            ChunkStore(tmp_path / "run").load_checkpoint()
        with pytest.raises(TypeError):
            dumps_record({"x": np.array([object()])})


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
