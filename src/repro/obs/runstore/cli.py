"""``repro runs``: render, diff, and gate the recorded run registry.

Verbs:

* ``repro runs list`` -- one line per recorded run;
* ``repro runs show REF`` -- full manifest plus the attribution
  evidence (flagged episodes with their knee threshold and the per-hour
  bins that crossed it);
* ``repro runs diff A B`` -- compare two runs: config changes, dataset
  digest match/mismatch (exit 1 on mismatch), per-stage timing deltas,
  and episode-verdict churn with evidence-level explanations;
* ``repro runs check REF --baseline BENCH_trajectory.json`` -- gate a
  run against the committed bench trajectory (digest drift or
  simulate-stage slowdown beyond ``--max-slowdown`` fails).

``REF`` is a run id, any unique prefix, or ``latest``.

Building the parser imports nothing beyond argparse: the run store (and
with it :mod:`repro.core.dataset` and numpy) loads when a verb runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.runstore.evidence import EvidenceBundle
    from repro.obs.runstore.store import RunStore


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro runs`` verbs to an argparse (sub)parser."""
    # SUPPRESS: when mounted under the main `repro` parser (which has
    # its own --runs-dir), an omitted flag must not clobber the value
    # parsed before the subcommand.
    parser.add_argument(
        "--runs-dir", metavar="DIR", default=argparse.SUPPRESS,
        help="registry root (default: $REPRO_RUNS_DIR or ./runs)",
    )
    verbs = parser.add_subparsers(dest="runs_verb", required=True)

    list_verb = verbs.add_parser("list", help="one line per recorded run")
    list_verb.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable output (same document as the serve "
        "daemon's /runs endpoint)",
    )

    show = verbs.add_parser(
        "show", help="manifest + attribution evidence for one run"
    )
    show.add_argument("ref", help="run id, unique prefix, or 'latest'")
    show.add_argument(
        "--max-episodes", type=int, default=10, metavar="N",
        help="episode records to print per side (default 10)",
    )
    show.add_argument(
        "--timeline", action="store_true",
        help="replay the live-telemetry events in the run's trace.jsonl "
        "as a per-worker progress timeline",
    )
    show.add_argument(
        "--alerts", action="store_true",
        help="replay the recorded online-detection alert stream "
        "(alerts.jsonl) in firing order",
    )

    diff = verbs.add_parser(
        "diff", help="compare two runs (exit 1 on dataset-digest mismatch)"
    )
    diff.add_argument("ref_a", help="first run (id/prefix/'latest')")
    diff.add_argument("ref_b", help="second run (id/prefix/'latest')")

    check = verbs.add_parser(
        "check", help="gate a run against the committed bench trajectory"
    )
    check.add_argument(
        "ref", nargs="?", default="latest",
        help="run to check (default: latest)",
    )
    check.add_argument(
        "--baseline", required=True, metavar="PATH",
        help="trajectory file (BENCH_trajectory.json)",
    )
    check.add_argument(
        "--max-slowdown", type=float, default=2.0, metavar="X",
        help="fail when simulate.month exceeds X times the baseline "
        "(default 2.0)",
    )
    check.add_argument(
        "--require-entry", action="store_true",
        help="fail when the baseline has no entry for this config",
    )


def _pruned_hours(store: RunStore, run_id: str) -> int:
    """Sim-hours of chunk payloads retention-pruned for a run (0 when
    the run has no chunk store or nothing was pruned)."""
    from repro.obs.runstore.chunks import ChunkStore, ChunkStoreError

    chunks = ChunkStore(store.run_dir(run_id))
    if not chunks.exists():
        return 0
    try:
        return chunks.pruned_hours()
    except ChunkStoreError:
        return 0


def _format_when(unix: float) -> str:
    if not unix:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(unix)) + "Z"


def _cmd_list(store: RunStore, as_json: bool = False) -> int:
    if as_json:
        import json

        from repro.obs.runstore.store import runs_index

        print(json.dumps(runs_index(store), indent=2, sort_keys=True))
        return 0
    manifests = store.list_manifests()
    if not manifests:
        print(f"no runs recorded under {store.root}")
        return 0
    print(
        f"{'run id':<14} {'command':<10} {'engine':<8} {'hours':>5} "
        f"{'seed':>10} {'workers':>7} {'digest':<18} created"
    )
    for m in manifests:
        digest = (m.dataset.get("digest") or "")[:16] or "-"
        config = m.config
        print(
            f"{m.run_id:<14} {m.command:<10} {m.engine or '-':<8} "
            f"{config.get('hours', '-'):>5} {config.get('seed', '-'):>10} "
            f"{config.get('workers', '-'):>7} {digest:<18} "
            f"{_format_when(m.created_unix)}"
        )
    return 0


def _show_evidence(evidence: EvidenceBundle, max_episodes: int) -> None:
    print("-- attribution evidence --")
    for side in ("client", "server"):
        knee = evidence.thresholds.get(side)
        flagged = evidence.flagged.get(side, [])
        knee_str = f"{knee:.2%}" if knee is not None else "?"
        print(
            f"{side} knee threshold f={knee_str}; "
            f"{len(flagged)} {side}(s) crossed it"
        )
        if flagged:
            print(f"  crossing: {', '.join(flagged)}")
        records = evidence.records_for(side)
        for record in records[:max_episodes]:
            print(
                f"  episode: {record.entity} hours "
                f"{record.start_hour}-{record.end_hour} "
                f"(peak rate {record.peak_rate:.2%} >= f={record.threshold:.2%})"
            )
            for b in record.bins[:6]:
                print(
                    f"    hour {b['hour']:>4}: rate {b['rate']:.2%} "
                    f"({b['failures']}/{b['transactions']})"
                )
            if len(record.bins) > 6 or record.bins_truncated:
                hidden = len(record.bins) - 6 + record.bins_truncated
                print(f"    ... {max(0, hidden)} more hour bin(s)")
        if len(records) > max_episodes:
            print(f"  ... {len(records) - max_episodes} more episode(s)")
        truncated = evidence.truncated.get(side, 0)
        if truncated:
            print(f"  ({truncated} low-peak episode record(s) not stored)")
    blame = evidence.blame
    if blame:
        print(
            f"blame at f={blame.get('threshold', 0.05):g}: "
            f"server={blame.get('server_side')} client={blame.get('client_side')} "
            f"both={blame.get('both')} other={blame.get('other')} "
            f"(total {blame.get('total')})"
        )


def _show_alerts(path) -> None:
    """Replay ``alerts.jsonl`` in firing order (header, alerts, summary)."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        print(f"(cannot replay alert stream: {exc})")
        return
    print("-- alert stream --")
    header = lines[0] if lines and lines[0].get("type") == "header" else {}
    if header:
        rules = header.get("rules") or []
        print(
            f"schema {header.get('schema', '?')}; "
            f"{len(rules)} rule(s): "
            + ", ".join(r.get("name", "?") for r in rules)
        )
    fired = [line for line in lines if line.get("type") == "alert"]
    for alert in fired:
        entity = f" {alert['entity']}" if alert.get("entity") else ""
        detail = f" -- {alert['detail']}" if alert.get("detail") else ""
        print(
            f"  h{alert.get('hour', '?'):>4} [{alert.get('severity', '?')}] "
            f"{alert.get('rule', '?')}{entity}{detail}"
        )
    if not fired:
        print("  (no alerts fired)")
    summary = next(
        (line for line in lines if line.get("type") == "summary"), None
    )
    if summary:
        latency = summary.get("detection_latency_hours") or {}
        mean = latency.get("mean")
        print(
            f"summary: {summary.get('count', len(fired))} alert(s) over "
            f"{summary.get('hours_folded', '?')} folded hour(s)"
            + (
                f"; detection latency mean {mean:.2f}h "
                f"max {latency.get('max', 0)}h"
                if mean is not None else ""
            )
        )


def _cmd_show(
    store: RunStore, ref: str, max_episodes: int, timeline: bool = False,
    alerts: bool = False,
) -> int:
    manifest = store.load(ref)
    print(f"run {manifest.run_id}  ({manifest.schema})")
    print(f"command:    {manifest.command} ({' '.join(manifest.argv)})")
    config = manifest.config
    print(
        f"config:     hours={config.get('hours')} "
        f"per_hour={config.get('per_hour')} seed={config.get('seed')} "
        f"workers={config.get('workers')}"
    )
    print(f"engine:     {manifest.engine or '-'}")
    fallback = (manifest.dataset.get("provenance") or {}).get(
        "parallel_fallback"
    )
    if fallback:
        print(
            f"fallback:   parallel dispatch FAILED; "
            f"{fallback.get('shards', '?')} shard(s) ran sequentially "
            f"in-process ({fallback.get('reason', 'unknown reason')})"
        )
    print(f"git rev:    {manifest.git_rev or '-'}")
    print(f"created:    {_format_when(manifest.created_unix)}")
    timings = manifest.timings
    wall = timings.get("wall_seconds")
    cpu = timings.get("cpu_seconds")
    if wall is not None:
        line = f"timings:    wall={wall:.3f}s"
        if cpu is not None:
            line += f" cpu={cpu:.3f}s"
        worker_cpu = timings.get("worker_cpu_seconds")
        if worker_cpu is not None:
            line += f" worker_cpu={worker_cpu:.3f}s"
        print(line)
    digest = manifest.dataset.get("digest")
    if digest:
        print(f"digest:     {digest}")
    serve = manifest.serve_provenance()
    if serve:
        committed = serve.get("committed_hours", 0)
        horizon = "∞" if serve.get("indefinite") else "finite"
        state = "completed" if serve.get("completed") else "resumable"
        line = (
            f"serve:      {committed}h committed ({horizon} horizon, "
            f"{state}"
        )
        resumed = serve.get("resumed_hours") or 0
        if resumed:
            line += f", resumed at {resumed}h"
        line += ")"
        print(line)
        retain = serve.get("retain_hours")
        if retain is not None:
            print(
                f"retention:  keep last {retain}h of chunk payloads "
                f"({serve.get('pruned_hours', 0)}h pruned)"
            )
    if manifest.trace_file:
        trace = store.run_dir(manifest.run_id) / manifest.trace_file
        print(
            f"trace:      {trace} (replay with `repro obs {trace}` or "
            f"`repro runs show {manifest.run_id} --timeline`)"
        )
    if manifest.alerts_file:
        summary = manifest.alerts_summary
        print(
            f"alerts:     "
            f"{store.run_dir(manifest.run_id) / manifest.alerts_file} "
            f"({summary.get('count', '?')} fired, "
            f"digest {(summary.get('digest') or '?')[:16]}; replay with "
            f"`repro runs show {manifest.run_id} --alerts`)"
        )
    stages = sorted(
        manifest.stage_seconds().items(), key=lambda kv: -kv[1]
    )
    if stages:
        print()
        print("-- stages (wall seconds) --")
        for stage, seconds in stages[:12]:
            print(f"{stage:<32} {seconds:>9.3f}")
    print()
    evidence = store.load_evidence(manifest.run_id)
    if evidence is None:
        print("(no attribution evidence recorded)")
    else:
        _show_evidence(evidence, max_episodes)
    if timeline:
        from repro.obs.live.timeline import render_timeline
        from repro.obs.replay import load_trace

        # ``events_file`` names the flat log of a run recorded before
        # progress events joined ``trace.jsonl``; load_trace reads both.
        log = manifest.events_file or manifest.trace_file
        try:
            events = (
                load_trace(str(store.run_dir(manifest.run_id) / log)).events
                if log else []
            )
        except OSError:
            events = []
        rendered = render_timeline(events)
        print()
        if rendered is None:
            pruned = _pruned_hours(store, manifest.run_id)
            if pruned:
                # A long-horizon serve run under --retain-hours: the
                # raw material a timeline replays was pruned by design,
                # not lost.  Exit 0 -- this is a policy, not an error.
                print(
                    f"(no replayable timeline: this serve run's rolling "
                    f"retention pruned the first {pruned} sim-hour(s) of "
                    "chunk payloads; the digest-chained manifest and "
                    "downsampled /history survive -- see `repro slo "
                    f"{manifest.run_id}`)"
                )
            else:
                print(
                    "(no live-telemetry events recorded for this run -- "
                    "re-run with --live or --serve-metrics)"
                )
        else:
            print(rendered)
    if alerts:
        print()
        if manifest.alerts_file:
            _show_alerts(store.run_dir(manifest.run_id) / manifest.alerts_file)
        else:
            print(
                "(no alert stream recorded for this run -- "
                "re-run with --detect)"
            )
    return 0


def _cmd_diff(store: RunStore, ref_a: str, ref_b: str) -> int:
    from repro.obs.runstore.diffing import diff_runs, render_diff

    a, b = store.load(ref_a), store.load(ref_b)
    diff = diff_runs(
        a, b,
        evidence_a=store.load_evidence(a.run_id),
        evidence_b=store.load_evidence(b.run_id),
    )
    print(render_diff(diff))
    return 0 if diff.identical_dataset else 1


def _cmd_check(store: RunStore, args) -> int:
    from repro.obs.runstore.diffing import check_run
    from repro.obs.runstore.trajectory import TrajectoryError, load_trajectory

    manifest = store.load(args.ref)
    try:
        entries = load_trajectory(args.baseline)
    except TrajectoryError as exc:
        print(f"repro runs check: {exc}", file=sys.stderr)
        return 2
    result = check_run(
        manifest, entries,
        max_slowdown=args.max_slowdown,
        require_entry=args.require_entry,
    )
    print(f"checking run {manifest.run_id} against {args.baseline}")
    for line in result.lines:
        print(line)
    return 0 if result.ok else 1


def run(args) -> int:
    """Dispatch a parsed ``repro runs`` invocation."""
    from repro.obs.runstore.store import RunStore, RunStoreError, resolve_runs_dir

    store = RunStore(resolve_runs_dir(getattr(args, "runs_dir", None)))
    try:
        if args.runs_verb == "list":
            return _cmd_list(store, as_json=getattr(args, "as_json", False))
        if args.runs_verb == "show":
            return _cmd_show(
                store, args.ref, args.max_episodes,
                timeline=getattr(args, "timeline", False),
                alerts=getattr(args, "alerts", False),
            )
        if args.runs_verb == "diff":
            return _cmd_diff(store, args.ref_a, args.ref_b)
        if args.runs_verb == "check":
            return _cmd_check(store, args)
    except RunStoreError as exc:
        print(f"repro runs: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled runs verb {args.runs_verb!r}")
