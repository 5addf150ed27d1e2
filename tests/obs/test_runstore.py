"""Run registry: manifests, store, evidence, trajectory, diffing."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.runstore.diffing import check_run, diff_runs, render_diff
from repro.obs.runstore.evidence import EvidenceBundle, collect_evidence
from repro.obs.runstore.manifest import (
    ManifestError,
    RunManifest,
    compute_run_id,
    manifest_from_dict,
)
from repro.obs.runstore.store import (
    RunRecorder,
    RunStore,
    RunStoreError,
    resolve_runs_dir,
)
from repro.obs.runstore.trajectory import (
    append_entry,
    load_trajectory,
    matching_entries,
)
from repro.obs.tracing import Tracer


def _manifest(run_id="", seed=7, digest="abc", created=100.0, **overrides):
    fields = dict(
        run_id=run_id,
        command="simulate",
        argv=["--seed", str(seed)],
        config={"hours": 24, "per_hour": 2, "seed": seed, "workers": 1},
        engine="fast",
        created_unix=created,
        dataset={"digest": digest, "fingerprint_sha256": "f" * 8},
    )
    fields.update(overrides)
    return RunManifest(**fields).seal()


class TestManifest:
    def test_run_id_is_content_addressed(self):
        a = _manifest(seed=7)
        b = _manifest(seed=7)
        assert a.run_id == b.run_id
        assert a.run_id != _manifest(seed=8).run_id
        assert a.run_id != _manifest(seed=7, digest="other").run_id

    def test_run_id_ignores_volatile_fields(self):
        a = _manifest(created=100.0)
        b = _manifest(created=999.0, timings={"wall_seconds": 5.0})
        assert a.run_id == b.run_id

    def test_round_trip(self):
        manifest = _manifest()
        loaded = manifest_from_dict(json.loads(json.dumps(manifest.to_dict())))
        assert loaded.run_id == manifest.run_id
        assert loaded.config == manifest.config
        assert loaded.dataset == manifest.dataset

    def test_unknown_fields_ignored(self):
        document = _manifest().to_dict()
        document["from_the_future"] = {"x": 1}
        assert manifest_from_dict(document).run_id == document["run_id"]

    def test_newer_major_refused(self):
        document = _manifest().to_dict()
        document["schema"] = "repro.run-manifest/2"
        with pytest.raises(ManifestError, match="newer than this reader"):
            manifest_from_dict(document)

    def test_wrong_document_type_refused(self):
        with pytest.raises(ManifestError):
            manifest_from_dict({"schema": "repro.bench-trajectory/1"})

    def test_stage_seconds_extraction(self):
        registry = MetricsRegistry()
        registry.counter("stage_seconds_total", stage="simulate.month").inc(1.5)
        registry.counter("stage_seconds_total", stage="blame.run").inc(0.2)
        registry.counter("other_total").inc(9)
        manifest = _manifest(metrics=registry.dump_state())
        stages = manifest.stage_seconds()
        assert stages == {"simulate.month": 1.5, "blame.run": 0.2}
        assert manifest.simulate_seconds() == 1.5

    def test_metric_value_matches_labels(self):
        registry = MetricsRegistry()
        registry.gauge("g", side="client").set(3)
        registry.gauge("g", side="server").set(5)
        manifest = _manifest(metrics=registry.dump_state())
        assert manifest.metric_value("gauge", "g", {"side": "server"}) == 5
        assert manifest.metric_value("gauge", "g", {"side": "none"}) is None


class TestStore:
    def test_write_load_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        manifest = _manifest()
        run_dir = store.write(manifest)
        assert (run_dir / "manifest.json").is_file()
        assert store.load(manifest.run_id).run_id == manifest.run_id

    def test_resolve_prefix_and_latest(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        old = _manifest(seed=1, created=10.0)
        new = _manifest(seed=2, created=20.0)
        store.write(old)
        store.write(new)
        assert store.resolve(old.run_id[:6]) == old.run_id
        assert store.resolve("latest") == new.run_id
        with pytest.raises(RunStoreError, match="no run matching"):
            store.resolve("zzzzzz")

    def test_ambiguous_prefix_rejected(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        store.write(_manifest(seed=1))
        store.write(_manifest(seed=2))
        with pytest.raises(RunStoreError, match="ambiguous"):
            store.resolve("")

    def test_empty_store(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        assert store.run_ids() == []
        with pytest.raises(RunStoreError, match="no runs recorded"):
            store.resolve("latest")

    def test_evidence_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        bundle = EvidenceBundle(thresholds={"client": 0.05})
        manifest = _manifest()
        store.write(manifest, evidence=bundle)
        loaded = store.load_evidence(manifest.run_id)
        assert loaded is not None
        assert loaded.thresholds == {"client": 0.05}
        assert loaded.digest() == bundle.digest()

    def test_missing_evidence_is_none(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        manifest = _manifest()
        store.write(manifest)
        assert store.load_evidence(manifest.run_id) is None

    def test_trace_copied_into_run_dir(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"type": "span"}\n')
        store = RunStore(tmp_path / "runs")
        manifest = _manifest()
        run_dir = store.write(manifest, trace_path=trace)
        assert (run_dir / "trace.jsonl").read_text() == trace.read_text()
        assert store.load(manifest.run_id).trace_file == "trace.jsonl"

    def test_rewrite_same_id_refreshes_in_place(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        manifest = _manifest(created=10.0)
        store.write(manifest)
        again = _manifest(created=20.0)
        assert again.run_id == manifest.run_id
        store.write(again)
        assert len(store.run_ids()) == 1
        assert store.load(manifest.run_id).created_unix == 20.0

    def test_resolve_runs_dir_precedence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "env"))
        assert resolve_runs_dir(tmp_path / "flag") == tmp_path / "flag"
        assert resolve_runs_dir(None) == tmp_path / "env"
        monkeypatch.delenv("REPRO_RUNS_DIR")
        assert str(resolve_runs_dir(None)) == "runs"


class TestRecorder:
    def test_finalize_writes_manifest_with_injected_clock(self, tmp_path):
        recorder = RunRecorder(
            command="simulate",
            argv=["--hours", "24"],
            config={"hours": 24, "per_hour": 2, "seed": 7, "workers": None},
            runs_dir=tmp_path / "runs",
            clock=lambda: 1234.5,
        )
        registry = MetricsRegistry()
        registry.counter("stage_seconds_total", stage="simulate.month").inc(0.5)
        manifest = recorder.finalize(registry)
        assert manifest.created_unix == 1234.5
        assert manifest.timings["wall_seconds"] >= 0
        assert manifest.simulate_seconds() == 0.5
        loaded = RunStore(tmp_path / "runs").load(manifest.run_id)
        assert loaded.command == "simulate"

    def test_record_result_captures_digest_and_workers(self, tmp_path, dataset):
        recorder = RunRecorder(
            command="simulate", argv=[],
            config={"hours": 168, "per_hour": 2, "seed": 1, "workers": None},
            runs_dir=tmp_path / "runs",
        )
        recorder.record_result(type("R", (), {"dataset": dataset})())
        assert recorder.dataset_info["digest"] == dataset.digest()
        assert recorder.engine == dataset.provenance.get("engine")
        assert recorder.config["workers"] == dataset.provenance.get("workers")


class TestEvidence:
    @pytest.fixture(scope="class")
    def bundle(self, dataset, perm_report):
        registry = MetricsRegistry()
        tracer = Tracer()
        tracer.enable(keep_in_memory=True)
        with obs.use(registry, tracer):
            bundle = collect_evidence(dataset, perm_report.mask)
        return bundle, tracer

    def test_knee_thresholds_per_side(self, bundle):
        evidence, _ = bundle
        assert 0.0 < evidence.thresholds["client"] <= 0.30
        assert 0.0 < evidence.thresholds["server"] <= 0.30

    def test_flagged_episodes_carry_bins(self, bundle):
        evidence, _ = bundle
        assert evidence.records, "reduced-scale month must flag episodes"
        for record in evidence.records:
            assert record.side in ("client", "server")
            assert record.peak_rate >= record.threshold
            assert record.bins
            for b in record.bins:
                assert record.start_hour <= b["hour"] <= record.end_hour
                assert b["rate"] >= record.threshold
                assert b["failures"] <= b["transactions"]

    def test_flagged_lists_match_records(self, bundle):
        evidence, _ = bundle
        for side in ("client", "server"):
            names = {r.entity for r in evidence.records_for(side)}
            assert names <= set(evidence.flagged[side])

    def test_peak_rates_cover_flagged_entities(self, bundle):
        evidence, _ = bundle
        for side in ("client", "server"):
            for name in evidence.flagged[side]:
                assert name in evidence.entity_peak_rates[side]

    def test_blame_breakdown_consistent(self, bundle):
        evidence, _ = bundle
        blame = evidence.blame
        assert blame["threshold"] == 0.05
        assert blame["total"] == (
            blame["server_side"] + blame["client_side"]
            + blame["both"] + blame["other"]
        )

    def test_round_trip_digest_stable(self, bundle):
        evidence, _ = bundle
        reloaded = EvidenceBundle.from_dict(
            json.loads(json.dumps(evidence.to_dict()))
        )
        assert reloaded.digest() == evidence.digest()
        assert len(reloaded.records) == len(evidence.records)

    def test_collection_is_deterministic(self, dataset, perm_report):
        with obs.use(MetricsRegistry(), Tracer()):
            again = collect_evidence(dataset, perm_report.mask)
        with obs.use(MetricsRegistry(), Tracer()):
            thrice = collect_evidence(dataset, perm_report.mask)
        assert again.digest() == thrice.digest()

    def test_the_commands_blame_pass_is_reused(
        self, dataset, perm_report, bundle, monkeypatch
    ):
        from repro.core import blame

        analysis = blame.run_blame_analysis(dataset, 0.05, perm_report.mask)
        monkeypatch.setattr(blame, "run_blame_analysis", None)
        with obs.use(MetricsRegistry(), Tracer()):
            reused = collect_evidence(
                dataset, perm_report.mask, blame=analysis
            )
        assert reused.digest() == bundle[0].digest()

    def test_a_blame_pass_at_another_threshold_is_refused(
        self, dataset, perm_report
    ):
        from repro.core import blame

        analysis = blame.run_blame_analysis(dataset, 0.1, perm_report.mask)
        with pytest.raises(ValueError, match="f = 0.05"):
            collect_evidence(dataset, perm_report.mask, blame=analysis)

    def test_evidence_mirrored_as_trace_events(self, bundle):
        evidence, tracer = bundle
        spans = tracer.find("evidence.collect")
        assert spans
        names = [e["name"] for e in spans[0].events]
        assert "evidence.summary" in names
        episode_events = [
            e for e in spans[0].events if e["name"] == "evidence.episode"
        ]
        assert len(episode_events) == len(evidence.records)

    def test_newer_evidence_schema_refused(self):
        with pytest.raises(ManifestError, match="newer"):
            EvidenceBundle.from_dict({"schema": "repro.run-evidence/9"})


class TestTrajectory:
    def test_append_and_load(self, tmp_path):
        path = tmp_path / "BENCH_trajectory.json"
        clock_value = [100.0]
        entry = append_entry(
            path,
            {
                "bench": "b", "git_rev": "aaa",
                "config": {"hours": 24, "per_hour": 2, "seed": 1},
            },
            clock=lambda: clock_value[0],
        )
        assert entry["t"] == 100.0
        clock_value[0] = 200.0
        append_entry(
            path,
            {
                "bench": "b", "git_rev": "bbb",
                "config": {"hours": 24, "per_hour": 2, "seed": 1},
            },
            clock=lambda: clock_value[0],
        )
        entries = load_trajectory(path)
        assert [e["t"] for e in entries] == [100.0, 200.0]

    def test_append_dedupes_same_git_revision(self, tmp_path):
        path = tmp_path / "BENCH_trajectory.json"
        config = {"hours": 24, "per_hour": 2, "seed": 1}
        for t in (100.0, 200.0):
            append_entry(
                path,
                {"bench": "b", "git_rev": "aaa", "config": config,
                 "simulate_seconds": t},
                clock=lambda t=t: t,
            )
        entries = load_trajectory(path)
        assert [e["t"] for e in entries] == [200.0]
        # A different bench on the same revision is a separate series.
        append_entry(
            path,
            {"bench": "other", "git_rev": "aaa", "config": config},
            clock=lambda: 300.0,
        )
        assert len(load_trajectory(path)) == 2

    def test_missing_file_is_empty(self, tmp_path):
        assert load_trajectory(tmp_path / "nope.json") == []

    def test_series_capped_at_max_entries(self, tmp_path):
        from repro.obs.runstore.trajectory import MAX_ENTRIES_PER_SERIES

        path = tmp_path / "BENCH_trajectory.json"
        config = {"hours": 24, "per_hour": 2, "seed": 1}
        for i in range(MAX_ENTRIES_PER_SERIES + 10):
            append_entry(
                path,
                {"bench": "b", "git_rev": f"rev{i}", "config": config},
                clock=lambda i=i: float(i),
            )
        entries = load_trajectory(path)
        assert len(entries) == MAX_ENTRIES_PER_SERIES
        # The newest survive, the oldest are pruned.
        assert entries[0]["t"] == 10.0
        assert entries[-1]["t"] == float(MAX_ENTRIES_PER_SERIES + 9)

    def test_legacy_entries_without_git_rev_survive(self, tmp_path):
        # Files written before the git_rev field existed must load and
        # keep accumulating without dedupe (only the cap applies).
        path = tmp_path / "BENCH_trajectory.json"
        config = {"hours": 24, "per_hour": 2, "seed": 1}
        legacy = {
            "schema": "repro.bench-trajectory/1",
            "entries": [
                {"bench": "b", "t": 1.0, "config": dict(config)},
                {"bench": "b", "t": 2.0, "config": dict(config)},
            ],
        }
        path.write_text(json.dumps(legacy))
        append_entry(
            path, {"bench": "b", "git_rev": "ccc", "config": config},
            clock=lambda: 3.0,
        )
        entries = load_trajectory(path)
        assert [e["t"] for e in entries] == [1.0, 2.0, 3.0]

    def test_append_stamps_current_git_revision(self, tmp_path):
        # Inside this repository the revision is discoverable; the
        # entry carries it so later appends on the same commit dedupe.
        path = tmp_path / "BENCH_trajectory.json"
        entry = append_entry(
            path, {"bench": "b", "config": {"hours": 1}}, clock=lambda: 1.0
        )
        assert entry.get("git_rev"), "expected a git revision stamp"

    def test_matching_entries_filters_config(self, tmp_path):
        path = tmp_path / "t.json"
        append_entry(path, {
            "config": {"hours": 24, "per_hour": 2, "seed": 1},
        }, clock=lambda: 1.0)
        append_entry(path, {
            "config": {"hours": 744, "per_hour": 4, "seed": 1},
        }, clock=lambda: 2.0)
        entries = load_trajectory(path)
        hits = matching_entries(
            entries, {"hours": 24, "per_hour": 2, "seed": 1, "workers": 8}
        )
        assert len(hits) == 1
        assert hits[0]["config"]["hours"] == 24


def _evidence(flagged_clients, peaks, knee=0.05):
    return EvidenceBundle(
        thresholds={"client": knee, "server": knee},
        flagged={"client": sorted(flagged_clients), "server": []},
        entity_peak_rates={"client": dict(peaks), "server": {}},
    )


class TestDiffing:
    def test_identical_runs(self):
        a, b = _manifest(seed=7), _manifest(seed=7)
        diff = diff_runs(a, b)
        assert diff.identical_dataset
        assert not diff.config_changes
        rendered = render_diff(diff)
        assert "IDENTICAL" in rendered

    def test_digest_mismatch(self):
        diff = diff_runs(_manifest(digest="aaa"), _manifest(digest="bbb"))
        assert not diff.identical_dataset
        assert "MISMATCH" in render_diff(diff)

    def test_config_and_stage_deltas(self):
        ra, rb = MetricsRegistry(), MetricsRegistry()
        ra.counter("stage_seconds_total", stage="simulate.month").inc(1.0)
        rb.counter("stage_seconds_total", stage="simulate.month").inc(3.0)
        a = _manifest(metrics=ra.dump_state())
        b = _manifest(metrics=rb.dump_state())
        b.config = dict(b.config, workers=4)
        diff = diff_runs(a, b)
        assert ("workers", 1, 4) in diff.config_changes
        assert diff.stage_deltas["simulate.month"] == (1.0, 3.0)
        assert "+2.000" in render_diff(diff)

    def test_verdict_churn_explained_with_evidence(self):
        evidence_a = _evidence(
            ["clientX"], {"clientX": 0.062}, knee=0.051
        )
        evidence_b = _evidence([], {"clientX": 0.048}, knee=0.050)
        diff = diff_runs(
            _manifest(), _manifest(), evidence_a, evidence_b
        )
        assert len(diff.verdict_changes) == 1
        change = diff.verdict_changes[0]
        assert change.entity == "clientX"
        assert change.flagged_in == "a"
        assert "6.20%" in change.explanation
        assert ">= f=5.10%" in change.explanation
        assert "4.80% < f=5.00%" in change.explanation
        assert "clientX" in render_diff(diff)

    def test_no_churn_when_evidence_matches(self):
        evidence = _evidence(["clientX"], {"clientX": 0.06})
        diff = diff_runs(_manifest(), _manifest(), evidence, evidence)
        assert not diff.verdict_changes


class TestCheckRun:
    def _entries(self, digest="abc", seconds=1.0):
        return [{
            "bench": "ci_smoke", "t": 1.0,
            "config": {"hours": 24, "per_hour": 2, "seed": 7},
            "digest": digest, "simulate_seconds": seconds,
        }]

    def _run(self, digest="abc", seconds=1.0):
        registry = MetricsRegistry()
        registry.counter(
            "stage_seconds_total", stage="simulate.month"
        ).inc(seconds)
        return _manifest(digest=digest, metrics=registry.dump_state())

    def test_pass(self):
        result = check_run(self._run(), self._entries(), max_slowdown=2.0)
        assert result.ok
        assert any("PASS" in line for line in result.lines)

    def test_digest_drift_fails(self):
        result = check_run(self._run(digest="zzz"), self._entries())
        assert not result.ok
        assert any("DRIFT" in line for line in result.lines)

    def test_slowdown_fails(self):
        result = check_run(
            self._run(seconds=5.0), self._entries(seconds=1.0),
            max_slowdown=2.0,
        )
        assert not result.ok
        assert any("SLOW" in line for line in result.lines)

    def test_missing_entry_passes_unless_required(self):
        entries = [{
            "config": {"hours": 744, "per_hour": 4, "seed": 1},
            "digest": "x", "simulate_seconds": 1.0, "t": 1.0,
        }]
        assert check_run(self._run(), entries).ok
        assert not check_run(self._run(), entries, require_entry=True).ok

    def test_latest_matching_entry_wins(self):
        entries = self._entries(digest="old") + [{
            "bench": "ci_smoke", "t": 2.0,
            "config": {"hours": 24, "per_hour": 2, "seed": 7},
            "digest": "abc", "simulate_seconds": 1.0,
        }]
        assert check_run(self._run(digest="abc"), entries).ok
