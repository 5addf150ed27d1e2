"""Baseline round-trip: write findings, reload, subtract."""

import json

import pytest

from repro.lint.baseline import (
    apply_baseline,
    load_baseline,
    prune_baseline,
    write_baseline,
)
from repro.lint.engine import lint_paths

SNIPPET = """\
import random

def pick():
    rng = random.Random()
    return rng.random()
"""


@pytest.fixture
def violating_tree(tmp_path):
    target = tmp_path / "src" / "repro" / "world" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(SNIPPET)
    return tmp_path / "src" / "repro"


class TestBaselineRoundTrip:
    def test_write_load_subtract(self, violating_tree, tmp_path):
        result = lint_paths([str(violating_tree)])
        assert result.errors == 1

        baseline_file = tmp_path / "baseline.json"
        count = write_baseline(str(baseline_file), result.findings)
        assert count == 1

        keys = load_baseline(str(baseline_file))
        kept, baselined = apply_baseline(result.findings, keys)
        assert kept == []
        assert baselined == 1

    def test_engine_applies_baseline(self, violating_tree, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        first = lint_paths([str(violating_tree)])
        write_baseline(str(baseline_file), first.findings)

        second = lint_paths(
            [str(violating_tree)], baseline_path=str(baseline_file)
        )
        assert second.findings == []
        assert second.baselined == 1
        assert second.exit_code(strict=True) == 0

    def test_new_findings_survive_baseline(self, violating_tree, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        write_baseline(str(baseline_file), [])  # empty baseline

        result = lint_paths(
            [str(violating_tree)], baseline_path=str(baseline_file)
        )
        assert [f.rule for f in result.findings] == ["DET001"]
        assert result.exit_code() == 1

    def test_baseline_is_sorted_and_versioned(self, violating_tree, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        result = lint_paths([str(violating_tree)])
        write_baseline(str(baseline_file), result.findings)
        data = json.loads(baseline_file.read_text())
        assert data["version"] == 2
        entries = [
            (e["path"], e["rule"], e["line"], e["col"])
            for e in data["findings"]
        ]
        assert entries == sorted(entries)

    def test_bad_baseline_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError):
            load_baseline(str(bad))
        notdict = tmp_path / "notdict.json"
        notdict.write_text("[]")
        with pytest.raises(ValueError):
            load_baseline(str(notdict))


class TestBaselineV2:
    def test_v1_format_still_loads(self, tmp_path):
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps({
            "version": 1,
            "findings": [
                {"path": "src/repro/world/mod.py", "rule": "DET001",
                 "line": 4},
            ],
        }))
        keys = load_baseline(str(v1))
        assert keys == {("src/repro/world/mod.py", "DET001", 4)}

    def test_prune_drops_stale_and_upgrades_to_v2(self, tmp_path):
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps({
            "version": 1,
            "findings": [
                {"path": "a.py", "rule": "DET001", "line": 4},
                {"path": "b.py", "rule": "GEN002", "line": 9},
            ],
        }))
        dropped = prune_baseline(str(v1), [("a.py", "DET001", 4)])
        assert dropped == 1
        data = json.loads(v1.read_text())
        assert data["version"] == 2
        assert data["findings"] == [
            {"path": "b.py", "rule": "GEN002", "line": 9, "col": 0},
        ]

    def test_engine_reports_stale_entries(self, violating_tree, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        first = lint_paths([str(violating_tree)])
        write_baseline(str(baseline_file), first.findings)
        # Fix the violation: the baseline entry goes stale.
        (violating_tree / "world" / "mod.py").write_text("VALUE = 1\n")
        result = lint_paths(
            [str(violating_tree)], baseline_path=str(baseline_file)
        )
        assert len(result.stale_baseline) == 1
        (path, rule, _line) = result.stale_baseline[0]
        assert rule == "DET001"
        assert path.endswith("mod.py")

    def test_matching_baseline_has_no_stale_entries(
        self, violating_tree, tmp_path
    ):
        baseline_file = tmp_path / "baseline.json"
        first = lint_paths([str(violating_tree)])
        write_baseline(str(baseline_file), first.findings)
        result = lint_paths(
            [str(violating_tree)], baseline_path=str(baseline_file)
        )
        assert result.stale_baseline == []
