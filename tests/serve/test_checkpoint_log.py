"""The retention checkpoint log: a checkpoint writes what changed.

Completed history cells, closed episodes and fired alerts are appended
once to segment files under ``chunks/log/``; ``checkpoint.json`` keeps
only the mutable remainder and the record count per stream it covers.
Pinned here:

* the bytes a checkpoint writes do not grow with the run's length;
* a kill after the log append, after the checkpoint rename, or during
  the segment prune resumes to the uninterrupted run's digest and
  alert bytes, and a covered segment that is missing or torn is
  refused with a :class:`ServeError` naming it;
* a store written by the previous build -- every record inline in a
  ``/1`` checkpoint, an indented ``chunks.json`` -- resumes to the
  oracle digest and alert bytes.
"""

from __future__ import annotations

import functools
import json
import statistics
import tarfile
import zipfile
from collections import Counter
from pathlib import Path

import pytest

from repro import cli, obs
from repro.core.dataset import MeasurementDataset
from repro.obs.horizon.history import HistoryStore
from repro.obs.online.detector import OnlineDetector
from repro.obs.runstore.chunks import (
    ARRAY_LEAF,
    CHECKPOINT_FILE,
    LOG_DIR,
    ChunkStore,
)
from repro.obs.runstore.store import RunStore, serialize_alerts
from repro.serve import daemon as daemon_mod
from repro.serve.daemon import ServeConfig, ServeDaemon, ServeError
from repro.world.simulator import simulate_default_month

SEED = 20050101
FIXTURES = Path(__file__).parent / "fixtures"


def _daemon(runs_dir, hours, chunk_hours, retain_hours, per_hour=1,
            **kwargs):
    obs.set_registry(obs.MetricsRegistry())
    return ServeDaemon(ServeConfig(
        hours=hours, per_hour=per_hour, seed=SEED, chunk_hours=chunk_hours,
        retain_hours=retain_hours, runs_dir=str(runs_dir),
    ), **kwargs)


def _alerts_bytes(daemon):
    store = RunStore(daemon.store.root)
    manifest = store.load(daemon.run_id)
    return (store.run_dir(daemon.run_id) / manifest.alerts_file).read_bytes()


def _log_files(chunks):
    return {p.name: p.stat().st_size for p in chunks.log_dir.glob("*")}


class TestSegments:
    def _store(self, tmp_path, world):
        store = ChunkStore(tmp_path / "run")
        store.initialize({}, "fp")
        for h0 in range(0, 6, 2):
            store.commit(
                h0, h0 + 2, MeasurementDataset.block_template(world, 2)
            )
        return store

    def test_the_log_reads_back_to_the_covered_counts(
        self, tmp_path, world
    ):
        store = self._store(tmp_path, world)
        store.write_checkpoint({"hour": 2, "log": {
            "a": {"start": 0, "records": [{"x": 1}, {"x": 2}]},
            "b": {"start": 0, "records": []},
        }})
        record = store.write_checkpoint({"hour": 4, "log": {
            "a": {"start": 2, "records": [{"x": 3}]},
            "b": {"start": 0, "records": []},
        }})
        assert store.read_log(record["log"]) == {
            "a": (0, [{"x": 1}, {"x": 2}, {"x": 3}]), "b": (0, []),
        }

    def test_a_torn_tail_is_ignored_and_replaced(self, tmp_path, world):
        store = self._store(tmp_path, world)
        store.write_checkpoint({"hour": 2, "log": {
            "a": {"start": 0, "records": [{"x": 1}]},
        }})
        # Appended by a write whose checkpoint rename never happened.
        (store.log_dir / "a-00000001-00000004.jsonl").write_text(
            '{"x": 9}\n{"x": 9}\n{"x": 9}\n'
        )
        (store.log_dir / "a-00000004-00000005.jsonl.tmp").write_text("{")
        covered = store.load_checkpoint()["log"]
        assert store.read_log(covered) == {"a": (0, [{"x": 1}])}
        record = store.write_checkpoint({"hour": 4, "log": {
            "a": {"start": 1, "records": [{"x": 2}]},
        }})
        assert "a-00000001-00000004.jsonl" not in _log_files(store)
        assert store.read_log(record["log"]) == {
            "a": (0, [{"x": 1}, {"x": 2}])
        }

    def test_segments_below_the_floor_go_after_the_rename(
        self, tmp_path, world
    ):
        store = self._store(tmp_path, world)
        for hour, start in ((2, 0), (4, 2)):
            store.write_checkpoint({"hour": hour, "log": {"a": {
                "start": start, "records": [{"n": start}, {"n": start + 1}],
            }}})
        record = store.write_checkpoint({"hour": 6, "log": {"a": {
            "start": 4, "records": [{"n": 4}], "floor": 3,
        }}})
        assert sorted(_log_files(store)) == [
            "a-00000002-00000004.jsonl", "a-00000004-00000005.jsonl",
        ]
        assert store.read_log(record["log"]) == {
            "a": (2, [{"n": 2}, {"n": 3}, {"n": 4}])
        }


class TestCheckpointCostIsFlat:
    """168 h at one access per hour, 12 h retained in 6-hour chunks:
    nine checkpoints, one every 18 hours."""

    def test_bytes_per_checkpoint_do_not_trend_upward(self, tmp_path):
        written = []
        write_checkpoint = ChunkStore.write_checkpoint

        def measuring(store, document):
            before = _log_files(store)
            record = write_checkpoint(store, document)
            appended = sum(
                size for name, size in _log_files(store).items()
                if name not in before
            )
            written.append(store.checkpoint_path.stat().st_size + appended)
            return record

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ChunkStore, "write_checkpoint", measuring)
            daemon = _daemon(tmp_path, hours=168, chunk_hours=6,
                             retain_hours=12)
            daemon.prepare()
            assert daemon.run()["completed"]
        assert len(written) == 9
        assert written[-1] <= 1.25 * statistics.median(written), written


#: Resolutions small enough that the 36-hour crash plan evicts hour,
#: 6h and day cells, so checkpoints prune log segments.
SMALL_RESOLUTIONS = (("hour", 1, 10), ("6h", 6, 3), ("day", 24, 1),
                     ("week", 168, 1))

CRASH_HOURS = 36
CRASH_CHUNK = 4
CRASH_RETAIN = 8


class Killed(BaseException):
    """Stands in for a kill at one durable step."""


def _crash_daemon(runs_dir, **kwargs):
    return _daemon(runs_dir, hours=CRASH_HOURS, chunk_hours=CRASH_CHUNK,
                   retain_hours=CRASH_RETAIN, **kwargs)


@pytest.fixture
def small_history(monkeypatch):
    monkeypatch.setattr(
        daemon_mod, "HistoryStore",
        functools.partial(HistoryStore, SMALL_RESOLUTIONS),
    )


@pytest.fixture(scope="module")
def crash_oracle(tmp_path_factory):
    """The uninterrupted crash plan: digest, alert bytes, surfaces."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            daemon_mod, "HistoryStore",
            functools.partial(HistoryStore, SMALL_RESOLUTIONS),
        )
        daemon = _crash_daemon(tmp_path_factory.mktemp("oracle"))
        daemon.prepare()
        result = daemon.run()
    assert result["digest"] == simulate_default_month(
        hours=CRASH_HOURS, per_hour=1, seed=SEED, workers=1
    ).dataset.digest()
    return result["digest"], _alerts_bytes(daemon), _surfaces(daemon)


def _surfaces(daemon):
    return json.dumps({
        res: daemon.history.document({"series": "client", "res": res})
        for res, _, _ in SMALL_RESOLUTIONS
    }, sort_keys=True)


def _kill_at(patch, point, checkpoint_number):
    """Raise :class:`Killed` at ``point`` of the given checkpoint write."""
    seen = {"renames": 0, "armed": False}
    real_replace, real_unlink = Path.replace, Path.unlink

    def replace(self, target):
        if Path(target).name != CHECKPOINT_FILE:
            return real_replace(self, target)
        seen["renames"] += 1
        if seen["renames"] != checkpoint_number:
            return real_replace(self, target)
        if point == "after-log-append":
            raise Killed
        result = real_replace(self, target)
        if point == "after-rename":
            raise Killed
        seen["armed"] = True
        return result

    def unlink(self, missing_ok=False):
        real_unlink(self, missing_ok=missing_ok)
        if seen["armed"] and self.parent.name == LOG_DIR:
            raise Killed

    patch.setattr(Path, "replace", replace)
    patch.setattr(Path, "unlink", unlink)


class TestCrashPoints:
    @pytest.mark.parametrize("checkpoint_number, point", [
        (1, "after-log-append"),
        (1, "after-rename"),
        (2, "after-log-append"),
        (2, "after-rename"),
        (2, "during-prune"),
        (3, "during-prune"),
    ])
    def test_resume_reaches_the_uninterrupted_run(
        self, tmp_path, small_history, crash_oracle, checkpoint_number,
        point,
    ):
        digest, alerts, surfaces = crash_oracle
        first = _crash_daemon(tmp_path)
        first.prepare()
        with pytest.MonkeyPatch.context() as patch:
            _kill_at(patch, point, checkpoint_number)
            with pytest.raises(Killed):
                first.run()
        chunks = ChunkStore(first.store.run_dir(first.run_id))
        covered = (chunks.load_checkpoint() or {}).get("log", {})
        torn = [
            path for stream, segments in chunks._log_segments().items()
            for _, stop, path in segments if stop > covered.get(stream, 0)
        ]
        assert bool(torn) == (point == "after-log-append")

        resumed = _crash_daemon(tmp_path)
        resumed.prepare(resume=True)
        assert resumed.run()["digest"] == digest
        assert _alerts_bytes(resumed) == alerts
        assert _surfaces(resumed) == surfaces

    def _stopped_store(self, tmp_path):
        def stop_at_28(daemon, entry):
            if entry["hour_stop"] >= 28:
                daemon.request_stop()

        first = _crash_daemon(tmp_path, chunk_callback=stop_at_28)
        first.prepare()
        first.run()
        return ChunkStore(first.store.run_dir(first.run_id))

    def test_a_missing_covered_segment_is_refused(
        self, tmp_path, small_history
    ):
        chunks = self._stopped_store(tmp_path)
        victim = sorted(chunks.log_dir.glob("alerts-*.jsonl"))[0]
        victim.unlink()
        with pytest.raises(ServeError, match="checkpoint log alerts"):
            _crash_daemon(tmp_path).prepare(resume=True)

    def test_a_torn_covered_segment_is_refused(
        self, tmp_path, small_history
    ):
        chunks = self._stopped_store(tmp_path)
        victim = sorted(chunks.log_dir.glob("cells.hour-*.jsonl"))[-1]
        lines = victim.read_text().splitlines(keepends=True)
        victim.write_text("".join(lines[:-1]))
        with pytest.raises(ServeError, match=victim.name):
            _crash_daemon(tmp_path).prepare(resume=True)


class TestResumeOverAPreviousBuildsStore:
    """``fixtures/parent_retention_store.tar.gz`` is a run directory the
    previous build wrote: the plan below stopped at sim-hour 8, with a
    ``repro.serve-checkpoint/1`` record holding every record inline at
    hour 6 and an indented ``chunks.json``."""

    HOURS, PER_HOUR, CHUNK, RETAIN = 12, 1, 2, 4

    def _runs(self, tmp_path):
        with tarfile.open(FIXTURES / "parent_retention_store.tar.gz") as tar:
            tar.extractall(tmp_path, filter="data")
        return tmp_path / "runs"

    def test_resume_reaches_the_oracle_and_the_same_alerts(
        self, tmp_path, capsys
    ):
        runs = self._runs(tmp_path)
        (run_dir,) = runs.iterdir()
        chunks = ChunkStore(run_dir)
        assert chunks.manifest_path.read_text().startswith("{\n  ")
        record = json.loads(chunks.checkpoint_path.read_text())
        assert record["schema"] == "repro.serve-checkpoint/1"
        assert record["detector"]["alerts"] and "log" not in record

        code = cli.main([
            "serve", "--runs-dir", str(runs), "--resume", run_dir.name,
            "--port", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "resuming at sim-hour 8" in out
        oracle = simulate_default_month(
            hours=self.HOURS, per_hour=self.PER_HOUR, seed=SEED, workers=1
        ).dataset.digest()
        assert f"dataset digest: {oracle}" in out
        # Its next checkpoint moved the inline records to the log.
        assert ChunkStore(run_dir).load_checkpoint()["log"]["alerts"] > 0

        reference = _daemon(
            tmp_path / "reference", hours=self.HOURS,
            chunk_hours=self.CHUNK, retain_hours=self.RETAIN,
        )
        reference.prepare()
        assert reference.run()["digest"] == oracle
        manifest = RunStore(runs).load(run_dir.name)
        assert (run_dir / manifest.alerts_file).read_bytes() == (
            serialize_alerts(reference.detector.export()["lines"])
        )


class TestResumeOverACheckpoint2Store:
    """``fixtures/checkpoint2_retention_store.tar.gz`` is a run directory
    written before checkpoints carried array leaves: the plan below
    stopped at sim-hour 14, with zlib level-1 payloads at the planned
    dtypes, a ``repro.serve-checkpoint/2`` record at hour 12 and log
    segments whose history cells are number text."""

    HOURS, PER_HOUR, CHUNK, RETAIN = 18, 1, 2, 4

    def _daemon(self, runs_dir):
        return _daemon(runs_dir, hours=self.HOURS, chunk_hours=self.CHUNK,
                       retain_hours=self.RETAIN, per_hour=self.PER_HOUR)

    @staticmethod
    def _history_bytes(daemon):
        return json.dumps([
            daemon.history.document({"series": series, "res": res})
            for series in ("overall", "client", "server", "region")
            for res in ("hour", "6h", "day", "week")
        ], sort_keys=True)

    def test_resume_reaches_the_oracle_alerts_and_history(self, tmp_path):
        with tarfile.open(
            FIXTURES / "checkpoint2_retention_store.tar.gz"
        ) as tar:
            tar.extractall(tmp_path, filter="data")
        (run_dir,) = (tmp_path / "runs").iterdir()
        chunks = ChunkStore(run_dir)
        record = json.loads(chunks.checkpoint_path.read_text())
        assert record["schema"] == "repro.serve-checkpoint/2"
        assert "hour_rates" in record["detector"]["sides"]["client"]
        for name in chunks.payload_files():
            with zipfile.ZipFile(chunks.chunks_dir / name) as archive:
                assert {i.compress_type for i in archive.infolist()} == {
                    zipfile.ZIP_DEFLATED
                }
        old_segments = sorted(p.name for p in chunks.log_dir.iterdir())
        (cells,) = [n for n in old_segments if n.startswith("cells.6h")]
        assert ARRAY_LEAF not in (chunks.log_dir / cells).read_text()

        resumed = self._daemon(tmp_path / "runs")
        assert resumed.run_id == run_dir.name
        resumed.prepare(resume=True)
        assert resumed.resumed_hours == 14
        result = resumed.run()
        reference = self._daemon(tmp_path / "reference")
        reference.prepare()
        assert reference.run()["digest"] == result["digest"] == (
            simulate_default_month(
                hours=self.HOURS, per_hour=self.PER_HOUR, seed=SEED,
                workers=1,
            ).dataset.digest()
        )
        assert _alerts_bytes(resumed) == _alerts_bytes(reference)
        assert self._history_bytes(resumed) == self._history_bytes(reference)
        # The running per-rule alert count survived the stop and resume.
        snapshot = resumed.detector.snapshot()
        assert snapshot["alerts_by_rule"] == dict(sorted(Counter(
            alert["rule"] for alert in resumed.detector.alerts
        ).items()))
        assert snapshot == reference.detector.snapshot()

        # Its next checkpoint is /3 and appended array-leaf segments
        # after the text ones; restoring from the mixed log is exact.
        chunks = ChunkStore(run_dir)
        record = chunks.load_checkpoint()
        assert record["schema"] == "repro.serve-checkpoint/3"
        new = sorted(
            p for p in chunks.log_dir.iterdir()
            if p.name not in old_segments and p.name.startswith("cells.")
        )
        assert new and all(ARRAY_LEAF in p.read_text() for p in new)
        assert set(old_segments) <= {p.name for p in chunks.log_dir.iterdir()}
        log = chunks.read_log(record["log"])
        history = HistoryStore()
        history.restore_state(record["history"], log)
        assert history.export_state() == reference.history.export_state()
        detector = OnlineDetector(
            rules=reference.detector.rules,
            retention_hours=reference.detector.retention_hours,
        )
        detector.restore_state(record["detector"], log)
        assert detector.export_state() == reference.detector.export_state()
        assert detector.snapshot() == reference.detector.snapshot()
