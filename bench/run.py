"""Whole-command benchmark: workloads through the real ``repro`` CLI.

Usage (from the repository root)::

    python3 bench/run.py                          # all four workloads, one pass
    python3 bench/run.py --trace 1                # plus a traced pass: layer table
    python3 bench/run.py --workload detect --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --size paper             # the 744 h / 336 h plan

Each pass of a workload runs its legs (see ``workloads.py``) as fresh
child processes.  With ``--seconds S`` passes repeat until S seconds have
been spent on the workload, and every metric is the median over passes.
``--trace 1`` alternates an untraced and a traced pass, prints the
per-layer table and the tracing overhead, and reports the per-layer
metrics instead of the end-to-end ones.

The last line of stdout is one JSON object: ``correct``, ``attempted``
(legs run), ``failed`` (legs that exited non-zero or failed an output
check) and ``metrics`` -- the end-to-end metrics named in
``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics (``--trace
1``).  With several workloads the metric names are prefixed by
``<workload>:``.  A result file per workload, with the environment, every
pass and every check, goes to ``--out``.  The exit code is 0 only when
every leg ran and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

from measure import ROOT, LegRun, layer_metrics, layer_rows, quarter_means, run_leg
from workloads import (
    DEFAULT_SEED,
    SIZES,
    WORKLOADS,
    Check,
    PassOutputs,
    collect,
    cross_checks,
    first_leg,
    hours_of,
    pass_checks,
    resume_leg,
)

WORK_DIR = ROOT / ".bench_runs"


@dataclass
class PassRun:
    """One pass of a workload: its legs, outputs, checks and numbers."""

    traced: bool
    legs: List[LegRun]
    outputs: PassOutputs
    checks: List[Check]
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, dict] = field(default_factory=dict)

    def failed_legs(self) -> int:
        failed = {i for i, leg in enumerate(self.legs) if leg.code != 0}
        last = len(self.legs) - 1
        failed.update(
            min(c.leg, last) for c in self.checks if c.status == "fail"
        )
        return len(failed)


@dataclass
class WorkloadRun:
    workload: str
    passes: List[PassRun] = field(default_factory=list)

    def plain(self) -> List[PassRun]:
        return [p for p in self.passes if not p.traced]

    def traced(self) -> List[PassRun]:
        return [p for p in self.passes if p.traced]

    def attempted(self) -> int:
        return sum(len(p.legs) for p in self.passes)

    def failed(self) -> int:
        return sum(p.failed_legs() for p in self.passes)


def median_of(passes: List[PassRun], name: str) -> Optional[float]:
    values = [p.metrics[name] for p in passes if name in p.metrics]
    return statistics.median(values) if values else None


def end_to_end(workload: str, size: str, legs: List[LegRun]) -> Dict[str, float]:
    """A complete pass's end-to-end metrics, summed over its legs.

    ``sim_hours_per_s`` divides by the simulation loop (set-up end to the
    last result) rather than ``run_s``: a serve leg's exit waits 0-0.5 s
    for the HTTP server's poll loop, which would otherwise dominate it.
    """
    metrics = {
        "wall_s": sum(leg.wall_s for leg in legs),
        "setup_s": sum(leg.setup_s for leg in legs),
        "run_s": sum(leg.run_s for leg in legs),
        "cpu_s": sum(leg.cpu_s for leg in legs),
        "peak_rss_mb": max(leg.peak_rss_mb for leg in legs),
        "first_result_s": legs[0].first_result_s,
        "sim_hours_per_s": (
            hours_of(workload, size) / sum(leg.loop_s for leg in legs)
        ),
    }
    if workload == "serve-resume":
        metrics["resume_s"] = legs[1].setup_s
    return metrics


def traced_layers(legs: List[LegRun]) -> tuple:
    """(layer rows, per-layer metrics) of one traced pass, summed over legs."""
    rows: Dict[str, dict] = {}
    metrics: Dict[str, float] = {}
    for leg in legs:
        leg_rows = layer_rows(leg.spans)
        for name in sorted(leg_rows):
            row = rows.setdefault(name, {
                "calls": 0, "wall_s": 0.0, "self_s": 0.0,
                "thread": leg_rows[name]["thread"],
            })
            for key in ("calls", "wall_s", "self_s"):
                row[key] += leg_rows[name][key]
        leg_metrics = layer_metrics(leg_rows, leg.spans["counters"])
        for name in sorted(leg_metrics):
            metrics[name] = metrics.get(name, 0) + leg_metrics[name]
    engine_s = metrics["world.engine_s"]
    metrics["world.simulator.tx_per_s"] = (
        metrics["world.simulator.transactions"] / engine_s if engine_s else 0.0
    )
    counters = legs[-1].spans["counters"]
    for name, scale, key in (
        ("obs.runstore.chunks.payload_mb", 2**20, "payload_bytes"),
        ("obs.runstore.chunks.manifest_kb", 2**10, "manifest_bytes"),
        ("obs.runstore.chunks.checkpoint_kb", 2**10, "checkpoint_bytes"),
    ):
        metrics[name] = counters.get(f"obs.runstore.chunks.{key}", 0) / scale
    quarters = quarter_means(legs[-1].spans["update_ms"])
    if quarters is not None:
        metrics["obs.online.detector.update_ms_first_quarter"] = quarters[0]
        metrics["obs.online.detector.update_ms_last_quarter"] = quarters[1]
    return rows, metrics


def run_pass(workload: str, args, pass_dir: Path, traced: bool, first) -> PassRun:
    runs_dir = pass_dir / "runs"
    leg = first_leg(workload, args.size, args.seed, runs_dir)
    legs = [run_leg(leg, pass_dir / f"0-{leg.name}", traced)]
    if workload == "serve-resume" and legs[0].code == 0:
        resume = resume_leg(runs_dir, legs[0].stdout)
        if resume is not None:
            legs.append(run_leg(resume, pass_dir / f"1-{resume.name}", traced))
    expected_legs = 2 if workload == "serve-resume" else 1
    outputs = collect(workload, args.size, runs_dir, [leg.stdout for leg in legs])
    checks = [
        Check(f"leg {leg.leg.name} exits 0", "pass" if leg.code == 0 else "fail",
              f"exit {leg.code}", i)
        for i, leg in enumerate(legs)
    ]
    checks += pass_checks(workload, args.size, args.seed, outputs, first)
    run = PassRun(traced, legs, outputs, checks)
    complete = len(legs) == expected_legs and all(
        leg.code == 0 and leg.setup_s is not None
        and leg.last_result_s is not None for leg in legs
    )
    if complete:
        run.metrics = end_to_end(workload, args.size, legs)
        if outputs.detection_latency_h is not None:
            run.metrics["detection_latency_h"] = outputs.detection_latency_h
        if traced:
            run.layers, layer_values = traced_layers(legs)
            run.metrics.update(layer_values)
    return run


def run_workload(workload: str, args, work_dir: Path) -> WorkloadRun:
    """Passes until ``args.seconds`` are spent; a pass (or an untraced +
    traced pair) is only started when it is expected to fit."""
    result = WorkloadRun(workload)
    started = time.monotonic()
    first: Optional[PassOutputs] = None
    rounds: List[float] = []
    while True:
        round_started = time.monotonic()
        for traced in (False, True) if args.trace else (False,):
            index = len(result.passes)
            run = run_pass(
                workload, args, work_dir / f"{workload}-{index}", traced, first
            )
            result.passes.append(run)
            if first is None:
                first = run.outputs
        rounds.append(time.monotonic() - round_started)
        elapsed = time.monotonic() - started
        if elapsed + statistics.median(rounds) > args.seconds:
            return result


# -- environment and output ------------------------------------------------------


def _fs_type(path: Path) -> str:
    """Filesystem type of ``path`` (longest matching mount point)."""
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) >= 3:
            mount = fields[1]
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fstype = mount, fields[2]
    return fstype


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
    )
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args, work_dir: Path) -> Dict[str, object]:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": _git_rev(),
        "runs_dir_fs": _fs_type(work_dir),
        "seed": args.seed,
        "size": args.size,
    }


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def print_workload(result: WorkloadRun, args, spec: dict) -> None:
    plain = result.plain()
    print(
        f"== {result.workload} (size {args.size}, seed {args.seed}, "
        f"{len(plain)} pass(es), {len(plain[0].legs)} leg(s) each) =="
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(run_s="s", resume_s="s", detection_latency_h="sim-h")
    print(f"{'metric':<22}{'unit':<9}{'median':>10}{'min':>10}{'max':>10}{'n':>4}")
    for name in units:
        values = [p.metrics[name] for p in plain if name in p.metrics]
        if values:
            print(
                f"{name:<22}{units[name]:<9}{_fmt(statistics.median(values)):>10}"
                f"{_fmt(min(values)):>10}{_fmt(max(values)):>10}{len(values):>4}"
            )
    seen = set()
    for check in (c for p in result.passes for c in p.checks):
        key = (check.name, check.status)
        if key not in seen:
            seen.add(key)
            print(f"  {check.status.upper():<9} {check.name}  {check.detail}")
    traced = [p for p in result.traced() if p.layers]
    if traced:
        print_layers(result, traced)
    print()


def print_layers(result: WorkloadRun, traced: List[PassRun]) -> None:
    names = sorted({n for p in traced for n in p.layers})
    print(f"layers (median over {len(traced)} traced pass(es)):")
    print(f"  {'layer':<36}{'thread':<8}{'calls':>7}{'wall_s':>10}{'self_s':>10}{'share':>8}")

    def med(name, key):
        return statistics.median(p.layers.get(name, {}).get(key, 0) for p in traced)

    wall = statistics.median(p.metrics["wall_s"] for p in traced)
    for name in names:
        thread = next(p.layers[name]["thread"] for p in traced if name in p.layers)
        label = "main" if thread == "MainThread" else "other"
        share = med(name, "self_s") / wall if label == "main" else None
        print(
            f"  {name:<36}{label:<8}{_fmt(med(name, 'calls')):>7}"
            f"{med(name, 'wall_s'):>10.4f}{med(name, 'self_s'):>10.4f}"
            f"{(f'{share:.1%}' if share is not None else '(bg)'):>8}"
        )
    layer_names = sorted(
        n for n in traced[0].metrics if "." in n
    )
    for name in layer_names:
        print(f"  {name} = {_fmt(median_of(traced, name))}")
    untraced = median_of(result.plain(), "wall_s")
    if untraced:
        overhead = wall - untraced
        print(
            f"tracing overhead: traced wall_s {wall:.3f} - untraced "
            f"{untraced:.3f} = {overhead:+.3f} s ({overhead / untraced:+.1%})"
        )


def summary(result: WorkloadRun, args, spec: dict) -> Dict[str, dict]:
    """The ``metrics`` object of the result line for one workload."""
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    passes = result.traced() if args.trace else result.plain()
    metrics = {}
    for metric in chosen:
        name = metric["name"]
        if name == "trace.overhead_s":
            traced = median_of(result.traced(), "wall_s")
            plain = median_of(result.plain(), "wall_s")
            value = None if traced is None or plain is None else traced - plain
        else:
            value = median_of(passes, name)
        if value is not None:
            metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics


def leg_record(leg: LegRun) -> dict:
    """A leg's entry in the result file; traced legs add their self-time
    totals per thread kind, which must not exceed the leg's wall time."""
    record = {
        "name": leg.leg.name, "argv": leg.leg.argv, "code": leg.code,
        "wall_s": leg.wall_s,
    }
    if leg.spans is not None:
        rows = layer_rows(leg.spans).values()
        record["main_self_s"] = sum(
            r["self_s"] for r in rows if r["thread"] == "MainThread"
        )
        record["other_self_s"] = sum(
            r["self_s"] for r in rows if r["thread"] != "MainThread"
        )
    return record


def write_result(result: WorkloadRun, args, env: dict, metrics: dict) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    path = out_dir / (
        f"{result.workload}-seed{args.seed}-trace{args.trace}-"
        f"{int(started * 1000)}-{os.getpid()}.json"
    )
    document = {
        "schema": "repro.bench/1",
        "workload": result.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "written_unix": started,
        "env": env,
        "correct": result.failed() == 0,
        "attempted": result.attempted(),
        "failed": result.failed(),
        "metrics": metrics,
        "passes": [
            {
                "traced": p.traced,
                "metrics": p.metrics,
                "checks": [vars(c) for c in p.checks],
                "legs": [leg_record(leg) for leg in p.legs],
                "layers": p.layers,
            }
            for p in result.passes
        ],
    }
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="repeat passes until this much time is spent "
                        "per workload (default 0: one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add traced passes and report per-layer "
                        "metrics")
    parser.add_argument("--size", choices=sorted(SIZES), default="small")
    parser.add_argument("--out", default=str(WORK_DIR / "results"),
                        help="directory for the per-workload result files")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"bench: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = load_benchmark()
    work_dir = WORK_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True)
    env = environment(args, work_dir)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = [run_workload(w, args, work_dir) for w in workloads]
    firsts = {r.workload: r.plain()[0].outputs for r in results}
    for workload, checks in sorted(cross_checks(firsts).items()):
        target = next(r for r in results if r.workload == workload)
        target.plain()[0].checks.extend(checks)
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    complete = True
    for result in results:
        print_workload(result, args, spec)
        metrics = summary(result, args, spec)
        path = write_result(result, args, env, metrics)
        print(f"result file: {path}")
        line["attempted"] += result.attempted()
        line["failed"] += result.failed()
        complete &= len(metrics) == len(spec["per_layer" if args.trace else "end_to_end"])
        prefix = "" if len(results) == 1 else f"{result.workload}:"
        for name in sorted(metrics):
            line["metrics"][prefix + name] = metrics[name]
    line["correct"] = complete and line["failed"] == 0
    if line["correct"]:
        shutil.rmtree(work_dir, ignore_errors=True)
    else:
        print(f"leg outputs kept under {work_dir}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
