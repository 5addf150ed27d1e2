"""`repro runs list|show|diff|check` and run recording through the CLI."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.obs.runstore.store import RunStore

HOURS = "24"
PER_HOUR = "2"


def _simulate(registry_dir, seed, workers="1"):
    code = cli.main([
        "--runs-dir", str(registry_dir),
        "--hours", HOURS, "--per-hour", PER_HOUR, "--seed", str(seed),
        "simulate", "--workers", workers,
    ])
    assert code == 0


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    """A registry with three recorded runs: seed 11 at 1 and 2 workers
    (identical datasets), and seed 12 (a different dataset)."""
    root = tmp_path_factory.mktemp("registry")
    _simulate(root, seed=11, workers="1")
    _simulate(root, seed=11, workers="2")
    _simulate(root, seed=12, workers="1")
    store = RunStore(root)
    manifests = store.list_manifests()
    assert len(manifests) == 3
    by_key = {
        (m.config["seed"], m.config["workers"]): m.run_id for m in manifests
    }
    return {
        "root": root,
        "store": store,
        "w1": by_key[(11, 1)],
        "w2": by_key[(11, 2)],
        "other": by_key[(12, 1)],
    }


class TestRecording:
    def test_simulate_announces_recorded_run(self, tmp_path, capsys):
        _simulate(tmp_path / "runs", seed=5)
        out = capsys.readouterr().out
        assert "run recorded: " in out
        store = RunStore(tmp_path / "runs")
        ids = store.run_ids()
        assert len(ids) == 1
        manifest = store.load(ids[0])
        assert manifest.command == "simulate"
        assert manifest.config["seed"] == 5
        assert manifest.config["workers"] == 1  # resolved, not None
        assert manifest.dataset["digest"]
        assert manifest.simulate_seconds() is not None
        # Evidence rides along and the manifest pins its digest.
        evidence = store.load_evidence(ids[0])
        assert evidence is not None
        assert manifest.evidence_digest == evidence.digest()

    def test_no_run_record_suppresses(self, tmp_path, capsys):
        code = cli.main([
            "--runs-dir", str(tmp_path / "runs"),
            "--hours", HOURS, "--per-hour", PER_HOUR, "--seed", "5",
            "simulate", "--workers", "1", "--no-run-record",
        ])
        assert code == 0
        assert "run recorded" not in capsys.readouterr().out
        assert RunStore(tmp_path / "runs").run_ids() == []

    def test_timeseries_not_recorded(self, tmp_path, capsys):
        code = cli.main([
            "--runs-dir", str(tmp_path / "runs"),
            "--hours", HOURS, "--per-hour", PER_HOUR, "--seed", "5",
            "timeseries", "--client", "nodea.howard.edu",
        ])
        assert code == 0
        assert RunStore(tmp_path / "runs").run_ids() == []

    def test_trace_copied_into_run_dir(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = cli.main([
            "--runs-dir", str(tmp_path / "runs"),
            "--hours", HOURS, "--per-hour", PER_HOUR, "--seed", "5",
            "simulate", "--workers", "1", "--trace", str(trace),
        ])
        assert code == 0
        store = RunStore(tmp_path / "runs")
        manifest = store.load("latest")
        assert manifest.trace_file == "trace.jsonl"
        copied = store.run_dir(manifest.run_id) / "trace.jsonl"
        assert copied.is_file()
        # The copy is the complete trace (tracer closed before copying).
        assert copied.read_text() == trace.read_text()


class TestRunsVerbs:
    def test_list(self, registry, capsys):
        code = cli.main(["runs", "--runs-dir", str(registry["root"]), "list"])
        assert code == 0
        out = capsys.readouterr().out
        for key in ("w1", "w2", "other"):
            assert registry[key] in out

    def test_list_empty(self, tmp_path, capsys):
        code = cli.main(["runs", "--runs-dir", str(tmp_path / "none"), "list"])
        assert code == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_show_prints_episode_evidence(self, registry, capsys):
        code = cli.main([
            "runs", "--runs-dir", str(registry["root"]), "show",
            registry["w1"],
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert registry["w1"] in out
        assert "knee threshold f=" in out
        assert "crossed it" in out
        assert "episode: " in out
        assert ">= f=" in out  # a flagged episode with its threshold
        assert "blame at f=0.05" in out

    def test_show_reveals_parallel_fallback(
        self, tmp_path, capsys, monkeypatch
    ):
        """A "parallel" run that fell back to in-process must say so."""
        from repro.world import parallel

        def broken(payloads):
            raise OSError("pool refused")

        monkeypatch.setattr(parallel, "_pool_dispatch", broken)
        _simulate(tmp_path, seed=11, workers="2")
        run_id = RunStore(tmp_path).list_manifests()[0].run_id
        capsys.readouterr()
        code = cli.main([
            "runs", "--runs-dir", str(tmp_path), "show", run_id,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fallback:" in out
        assert "ran sequentially in-process" in out
        assert "pool refused" in out

    def test_show_unknown_ref(self, registry, capsys):
        code = cli.main([
            "runs", "--runs-dir", str(registry["root"]), "show", "zzzzzz",
        ])
        assert code == 2
        assert "no run matching" in capsys.readouterr().err

    def test_diff_identical_digests_exit_zero(self, registry, capsys):
        # The acceptance criterion: --workers 1 vs --workers 4 on the
        # same seed diffs IDENTICAL with per-stage timing deltas.
        code = cli.main([
            "runs", "--runs-dir", str(registry["root"]), "diff",
            registry["w1"], registry["w2"],
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "digest: IDENTICAL" in out
        assert "-- stage timings (wall seconds) --" in out
        assert "simulate.month" in out
        assert ("workers" in out)  # the config change is surfaced

    def test_diff_different_seeds_exit_one(self, registry, capsys):
        code = cli.main([
            "runs", "--runs-dir", str(registry["root"]), "diff",
            registry["w1"], registry["other"],
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "digest: MISMATCH" in out
        assert "seed" in out

    def test_check_passes_against_matching_baseline(
        self, registry, tmp_path, capsys
    ):
        manifest = registry["store"].load(registry["w1"])
        baseline = tmp_path / "BENCH_trajectory.json"
        baseline.write_text(json.dumps({
            "schema": "repro.bench-trajectory/1",
            "entries": [{
                "bench": "test", "t": 1.0,
                "config": dict(manifest.config),
                "digest": manifest.dataset["digest"],
                "simulate_seconds": manifest.simulate_seconds(),
            }],
        }))
        code = cli.main([
            "runs", "--runs-dir", str(registry["root"]), "check",
            registry["w1"], "--baseline", str(baseline),
            "--max-slowdown", "100", "--require-entry",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "digest: OK" in out
        assert "PASS" in out

    def test_check_fails_on_digest_drift(self, registry, tmp_path, capsys):
        manifest = registry["store"].load(registry["w1"])
        baseline = tmp_path / "BENCH_trajectory.json"
        baseline.write_text(json.dumps({
            "schema": "repro.bench-trajectory/1",
            "entries": [{
                "bench": "test", "t": 1.0,
                "config": dict(manifest.config),
                "digest": "0" * 64,
                "simulate_seconds": manifest.simulate_seconds(),
            }],
        }))
        code = cli.main([
            "runs", "--runs-dir", str(registry["root"]), "check",
            registry["w1"], "--baseline", str(baseline),
        ])
        assert code == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_check_require_entry_fails_without_baseline(
        self, registry, tmp_path, capsys
    ):
        baseline = tmp_path / "empty.json"
        code = cli.main([
            "runs", "--runs-dir", str(registry["root"]), "check",
            "latest", "--baseline", str(baseline), "--require-entry",
        ])
        assert code == 1
        assert "baseline entry required" in capsys.readouterr().out
