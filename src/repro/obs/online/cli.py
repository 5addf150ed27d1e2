"""``repro detect`` -- score a recorded run's online detection.

Mirrors the runstore CLI pattern: :func:`configure_parser` attaches the
arguments, :func:`run` executes.  Exit codes: 0 when the online
pipeline exactly reproduces the batch analysis (and the recorded alert
digest), 1 on any quality mismatch, 2 on usage/IO errors -- including a
rebuilt dataset that no longer matches the recorded digest.
"""

from __future__ import annotations

import argparse
import sys

#: Default committed trajectory file ``detect`` observations append to.
DEFAULT_TRAJECTORY = "BENCH_trajectory.json"


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro detect`` arguments."""
    parser.add_argument(
        "ref", nargs="?", default="latest",
        help="run to score: id, unique prefix, or 'latest' (default)",
    )
    parser.add_argument(
        "--runs-dir", metavar="DIR", default=argparse.SUPPRESS,
        help="run-registry root (default: $REPRO_RUNS_DIR or ./runs)",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default=DEFAULT_TRAJECTORY,
        help="bench trajectory to append the detect observation to "
        f"(default {DEFAULT_TRAJECTORY})",
    )
    parser.add_argument(
        "--no-append", action="store_true",
        help="score only; do not append to the trajectory",
    )


def run(args: argparse.Namespace) -> int:
    """Execute ``repro detect``."""
    from repro.obs.online.report import DetectError, render_report, run_detect
    from repro.obs.runstore.store import RunStore, RunStoreError, resolve_runs_dir
    from repro.obs.runstore.trajectory import TrajectoryError, append_entry

    store = RunStore(resolve_runs_dir(getattr(args, "runs_dir", None)))
    try:
        manifest = store.load(args.ref)
    except RunStoreError as exc:
        print(f"repro detect: {exc}", file=sys.stderr)
        return 2
    run_dir = store.run_dir(manifest.run_id)
    try:
        report = run_detect(run_dir, manifest)
    except DetectError as exc:
        print(f"repro detect: {exc}", file=sys.stderr)
        return 2
    print(render_report(report))
    if not args.no_append:
        try:
            append_entry(
                args.baseline, report.trajectory_entry(manifest.config)
            )
            print(f"\ndetect observation appended to {args.baseline}")
        except (OSError, TrajectoryError) as exc:
            print(
                f"repro detect: warning: trajectory not updated: {exc}",
                file=sys.stderr,
            )
    return 0 if report.ok else 1
