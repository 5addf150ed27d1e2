"""Run one leg as a child process and turn what it reports into numbers.

Each leg is a fresh interpreter running ``bench/leg.py`` in its own
session (so a hung leg's worker processes can be killed as a group).
The child reports boundary events on a pipe; ``run.py`` timestamps the
spawn and the exit with the same ``CLOCK_MONOTONIC`` and takes CPU time
and peak RSS from ``os.wait4`` on that child alone -- its waited-for
worker processes included, other workloads' children excluded.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from workloads import Leg

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: A leg that has not exited after this long is killed and counted failed.
LEG_TIMEOUT_S = 150.0

#: Environment that would redirect or resize the program's work.
_SCRUBBED_ENV = ("REPRO_RUNS_DIR", "REPRO_WORKERS")


@dataclass
class LegRun:
    """One finished leg: exit code, boundary times, rusage, output."""

    leg: Leg
    code: int
    wall_s: float
    setup_s: Optional[float]
    first_result_s: Optional[float]
    last_result_s: Optional[float]
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    spans: Optional[dict] = None

    @property
    def run_s(self) -> float:
        """Set-up end to process exit."""
        return self.wall_s - self.setup_s

    @property
    def loop_s(self) -> float:
        """Set-up end to the last result: the simulation loop alone,
        without the teardown after it."""
        return self.last_result_s - self.setup_s


def _events(fd: int, deadline: float) -> Iterator[dict]:
    """JSON lines from the child's event pipe until EOF or the deadline."""
    pending = b""
    while True:
        remaining = deadline - time.monotonic()
        ready = select.select([fd], [], [], max(0.0, remaining))[0]
        if not ready:
            raise TimeoutError
        chunk = os.read(fd, 65536)
        if not chunk:
            return
        *lines, pending = (pending + chunk).split(b"\n")
        for line in lines:
            if line:
                yield json.loads(line)


def run_leg(leg: Leg, leg_dir: Path, traced: bool) -> LegRun:
    """Spawn ``leg``, drive its stop point, wait for it, measure it."""
    tmp = leg_dir / "tmp"
    tmp.mkdir(parents=True)
    spans_path = leg_dir / "spans.json"
    events_r, events_w = os.pipe()
    ack_r, ack_w = os.pipe()
    command = [
        sys.executable, str(BENCH / "leg.py"),
        "--events-fd", str(events_w), "--ack-fd", str(ack_r),
        "--probe", leg.probe,
    ]
    if leg.stop_commits is not None:
        command += ["--stop-after-commits", str(leg.stop_commits)]
    if traced:
        command += ["--spans", str(spans_path)]
    command += ["--", *leg.argv]
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED_ENV}
    env["TMPDIR"] = str(tmp)
    times: Dict[str, List[float]] = {}
    with open(leg_dir / "stdout.txt", "wb") as out, \
            open(leg_dir / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        child = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=out, stderr=err,
            pass_fds=(events_w, ack_r), start_new_session=True,
        )
    os.close(events_w)
    os.close(ack_r)
    try:
        for event in _events(events_r, spawned + LEG_TIMEOUT_S):
            times.setdefault(event["event"], []).append(event["t"] - spawned)
            if event["event"] == "stop_point":
                # The child waits for the ack, so the signal is pending
                # before the daemon reaches its next chunk boundary.
                os.kill(child.pid, signal.SIGTERM)
                os.write(ack_w, b"\n")
    except TimeoutError:
        os.killpg(child.pid, signal.SIGKILL)
    except OSError:
        pass  # the child died before taking the ack
    finally:
        os.close(events_r)
        os.close(ack_w)
    _, status, usage = os.wait4(child.pid, 0)
    ended = time.monotonic()
    child.returncode = os.waitstatus_to_exitcode(status)
    spans = None
    if traced and spans_path.is_file():
        spans = json.loads(spans_path.read_text())
        spans["spawned"] = spawned
        spans["ended"] = ended
    return LegRun(
        leg=leg,
        code=child.returncode,
        wall_s=ended - spawned,
        setup_s=times.get("setup_done", [None])[0],
        first_result_s=times.get("result", [None])[0],
        last_result_s=times.get("result", [None])[-1],
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=(leg_dir / "stdout.txt").read_text(errors="replace"),
        spans=spans,
    )


# -- the layer table ------------------------------------------------------------


def layer_rows(spans: dict) -> Dict[str, dict]:
    """Per span name: calls, wall (outermost calls only), self time, thread.

    Self time is a span's duration minus its children's; children are
    recorded on the same thread, so they never overlap each other.  Two
    synthetic rows close the main thread's account: ``process.import``
    (spawn until ``cli.main`` starts) and ``process.exit`` (``cli.main``
    returns until the process has exited).
    """
    records = spans["spans"]
    child_time = [0.0] * len(records)
    for name, start, end, parent, _ in records:
        if parent is not None:
            child_time[parent] += end - start
    rows: Dict[str, dict] = {}
    for index, (name, start, end, parent, thread) in enumerate(records):
        row = rows.setdefault(name, {
            "calls": 0, "wall_s": 0.0, "self_s": 0.0, "thread": thread,
        })
        row["calls"] += 1
        row["self_s"] += end - start - child_time[index]
        ancestor = parent
        while ancestor is not None and records[ancestor][0] != name:
            ancestor = records[ancestor][3]
        if ancestor is None:
            row["wall_s"] += end - start
    main = next(r for r in records if r[0] == "cli.main")
    for name, seconds in (
        ("process.import", main[1] - spans["spawned"]),
        ("process.exit", spans["ended"] - main[2]),
    ):
        rows[name] = {
            "calls": 1, "wall_s": seconds, "self_s": seconds,
            "thread": "MainThread",
        }
    return rows


def layer_metrics(rows: Dict[str, dict], counters: Dict[str, float]) -> Dict[str, float]:
    """The named per-layer metrics of one leg (sums over its calls)."""

    def wall(name: str) -> float:
        return rows.get(name, {}).get("wall_s", 0.0)

    def calls(name: str) -> int:
        return rows.get(name, {}).get("calls", 0)

    metrics = {
        "process.import_s": wall("process.import"),
        "world.defaults.build_s": wall("world.defaults.build"),
        "world.faults.generate_s": wall("world.faults.generate"),
        "world.faults.self_s": rows.get(
            "world.faults.generate", {}
        ).get("self_s", 0.0),
        "bgp.churn.run_s": wall("bgp.churn.run"),
        "bgp.routeviews.lookup_s": wall("bgp.routeviews.lookup"),
        "bgp.routeviews.lookups": calls("bgp.routeviews.lookup"),
        "world.engine_s": (
            wall("world.simulator.run") + wall("world.parallel.run_block")
        ),
        "world.parallel.blocks": calls("world.parallel.run_block"),
        "obs.runstore.store.write_s": wall("obs.runstore.store.write"),
        "core.dataset.digest_calls": calls("core.dataset.digest"),
        "core.dataset.block_digest_calls": calls("core.dataset.block_digest"),
        "core.blame.calls": calls("core.blame.run"),
        "obs.runstore.chunks.commits": calls("obs.runstore.chunks.commit"),
    }
    for name in (
        "bgp.messages.updates", "world.simulator.transactions",
        "obs.runstore.chunks.replayed", "obs.online.detector.hours_folded",
        "core.blame.rss_rise_mb",
    ):
        metrics[name] = counters.get(name, 0)
    metrics["core.dataset.digest_mb"] = (
        counters.get("core.dataset.digest_bytes", 0) / 2**20
    )
    return metrics


def quarter_means(values: List[float]) -> Optional[tuple]:
    """Mean of the first and of the last quarter of ``values``."""
    quarter = len(values) // 4
    if quarter == 0:
        return None
    return (
        sum(values[:quarter]) / quarter,
        sum(values[-quarter:]) / quarter,
    )
