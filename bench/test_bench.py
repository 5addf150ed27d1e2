"""Checks on the benchmark itself (not collected by the tier-1 suite).

Run with ``python3 -m pytest bench/test_bench.py`` from the repository
root; it runs ``bench/run.py`` once untraced and twice with ``--trace 1``
(about two minutes on a 2-CPU machine).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from compare import EXACT_COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(out: Path, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    files = {}
    for path in out.glob("*.json"):
        document = json.loads(path.read_text())
        files[document["workload"]] = document
    return proc, line, files


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("plain"))


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    return [
        _run(tmp_path_factory.mktemp(f"traced{i}"), "--trace", "1")
        for i in range(2)
    ]


def _assert_correct(proc, line, files) -> None:
    assert proc.returncode == 0, proc.stderr
    assert line["correct"] and line["failed"] == 0
    # One leg per workload, two for serve-resume, per pass.
    passes = sum(1 for doc in files.values() for _ in doc["passes"])
    assert line["attempted"] >= passes
    for doc in files.values():
        for run in doc["passes"]:
            for check in run["checks"]:
                assert check["status"] in ("pass", "unchecked"), check


def test_untraced_checks_pass(plain):
    _assert_correct(*plain)
    assert sorted(plain[2]) == sorted(WORKLOADS)


def test_every_end_to_end_metric_printed_with_unit(plain):
    proc, line, _ = plain
    for workload in WORKLOADS:
        section = proc.stdout.split(f"== {workload} ")[1].split("\n==")[0]
        for metric in SPEC["end_to_end"]:
            printed = line["metrics"][f"{workload}:{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert printed["value"] > 0
            assert any(
                row.split()[:2] == [metric["name"], metric["unit"]]
                for row in section.splitlines()
            ), (workload, metric["name"])


def test_traced_checks_pass_and_every_layer_metric_printed(traced_runs):
    for proc, line, files in traced_runs:
        _assert_correct(proc, line, files)
        for workload in WORKLOADS:
            for metric in SPEC["per_layer"]:
                printed = line["metrics"][f"{workload}:{metric['name']}"]
                assert printed["unit"] == metric["unit"]
        assert "tracing overhead:" in proc.stdout


def test_self_times_fit_in_each_leg(traced_runs):
    for _, _, files in traced_runs:
        for doc in files.values():
            for run in doc["passes"]:
                for leg in run["legs"]:
                    if "main_self_s" in leg:
                        assert leg["main_self_s"] <= leg["wall_s"] + 1e-6
                        assert leg["other_self_s"] <= leg["wall_s"]


def test_exact_counts_repeat(traced_runs):
    (_, first, _), (_, second, _) = traced_runs
    for workload in WORKLOADS:
        for name in EXACT_COUNTS:
            key = f"{workload}:{name}"
            assert first["metrics"][key] == second["metrics"][key], key
