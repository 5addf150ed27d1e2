"""CLI-level tests for ``repro lint``, plus the self-clean gate: the
shipped tree must lint clean under --strict."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"

SNIPPET = """\
import random

def pick():
    rng = random.Random()
    return rng.random()
"""


@pytest.fixture
def violating_file(tmp_path):
    target = tmp_path / "src" / "repro" / "world" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(SNIPPET)
    return target


class TestLintSubcommand:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert main(["lint", str(clean)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_violation_exits_one(self, violating_file, capsys):
        assert main(["lint", str(violating_file)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "mod.py:4:" in out

    def test_json_format(self, violating_file, capsys):
        assert main(["lint", str(violating_file), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["errors"] == 1
        assert data["findings"][0]["rule"] == "DET001"

    def test_select_subset(self, violating_file, capsys):
        # Only GEN rules requested: the DET001 violation is invisible.
        assert (
            main(["lint", str(violating_file), "--select", "GEN001,GEN002"])
            == 0
        )

    def test_select_unknown_rule_is_usage_error(self, violating_file, capsys):
        assert main(["lint", str(violating_file), "--select", "NOPE"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "gone.py")]) == 2

    def test_write_then_use_baseline(self, violating_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                ["lint", str(violating_file), "--write-baseline",
                 str(baseline)]
            )
            == 0
        )
        assert baseline.exists()
        capsys.readouterr()
        assert (
            main(
                ["lint", str(violating_file), "--baseline", str(baseline),
                 "--strict"]
            )
            == 0
        )
        assert "1 baselined" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "DET001", "DET002", "DET003", "DET004", "DIG003", "GEN001",
            "GEN002",
        ):
            assert rule_id in out


class TestSelfClean:
    def test_shipped_tree_lints_clean_strict(self, capsys):
        """The acceptance gate: `repro lint src/repro --strict` exits 0
        on the shipped tree, with no baseline."""
        assert main(["lint", str(SRC_REPRO), "--strict"]) == 0

class TestPruneBaseline:
    def test_requires_baseline_flag(self, violating_file, capsys):
        assert main(["lint", str(violating_file), "--prune-baseline"]) == 2
        assert "requires --baseline" in capsys.readouterr().err

    def test_up_to_date_baseline_passes(self, violating_file, tmp_path,
                                        capsys):
        baseline = tmp_path / "baseline.json"
        main(["lint", str(violating_file), "--write-baseline", str(baseline)])
        capsys.readouterr()
        code = main(
            ["lint", str(violating_file), "--baseline", str(baseline),
             "--prune-baseline", "--strict"]
        )
        assert code == 0
        assert "up to date" in capsys.readouterr().out

    def test_stale_entry_pruned_and_exit_one(self, violating_file, tmp_path,
                                             capsys):
        baseline = tmp_path / "baseline.json"
        main(["lint", str(violating_file), "--write-baseline", str(baseline)])
        violating_file.write_text("VALUE = 1\n")  # violation fixed
        capsys.readouterr()
        code = main(
            ["lint", str(violating_file), "--baseline", str(baseline),
             "--prune-baseline"]
        )
        assert code == 1  # CI gate: the stale entry must be committed away
        assert "pruned 1 stale baseline entry" in capsys.readouterr().out
        data = json.loads(baseline.read_text())
        assert data["findings"] == []
        # A second run is clean: the pruned file is now up to date.
        capsys.readouterr()
        assert (
            main(
                ["lint", str(violating_file), "--baseline", str(baseline),
                 "--prune-baseline", "--strict"]
            )
            == 0
        )


class TestParserStaysLight:
    def test_building_the_parser_does_not_load_the_engine(self):
        """Every ``repro`` command builds the parser, which registers
        ``repro lint``; the analyzer must load only when lint runs."""
        probe = (
            "import sys\n"
            "from repro.cli import _build_parser\n"
            "_build_parser()\n"
            "loaded = [m for m in ('repro.lint.engine', 'repro.lint.flow')"
            " if m in sys.modules]\n"
            "print(','.join(loaded))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, check=True,
        )
        assert proc.stdout.strip() == ""
