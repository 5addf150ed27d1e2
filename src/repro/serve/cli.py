"""``repro serve``: the CLI front of the continuous simulation daemon.

Start a fresh run::

    repro serve --hours 744 --chunk-hours 6 --port 9470 \
        --fault server:berkeley.edu:24-48:0.8

The daemon prints ``serve run: <id>`` up front, announces the HTTP
endpoints on stderr, and simulates chunk by chunk until the horizon.
SIGTERM/SIGINT stop it gracefully at the next chunk boundary (the
in-flight chunk is committed first).  Continue an interrupted run::

    repro serve --resume <id-or-prefix>

Resume rebuilds the configuration from the run's own chunk manifest --
the simulation flags do not need to be repeated and cannot drift.  On
reaching the horizon the daemon prints ``dataset digest: ...`` in the
same format as ``repro simulate``, so the kill-and-resume determinism
check is a plain line comparison.  The ``chunk chain:`` line it prints
on every exit is the same digest over the hours committed so far.

Long-horizon runs add ``--retain-hours N`` (rolling retention: old
chunk payloads are pruned, the hour-chained manifest is kept forever)
and ``--hours 0`` (indefinite horizon over a periodic 744-hour epoch;
requires retention)::

    repro serve --hours 0 --retain-hours 168 --port 9470
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the serve-specific options (sim flags come from the
    shared option group the main parser mounts)."""
    parser.add_argument(
        "--chunk-hours", type=int, default=argparse.SUPPRESS, metavar="N",
        help="sim-hours simulated and committed per chunk (default 6); "
        "execution detail only -- any value yields the same digest",
    )
    parser.add_argument(
        "--port", type=int, default=argparse.SUPPRESS, metavar="PORT",
        help="HTTP API port on 127.0.0.1 (default 0: ephemeral, "
        "announced on stderr)",
    )
    parser.add_argument(
        "--resume", metavar="RUN", default=argparse.SUPPRESS,
        help="continue an interrupted serve run (id, unique prefix, or "
        "'latest'); configuration is restored from the run itself",
    )
    parser.add_argument(
        "--fresh", action="store_true", default=argparse.SUPPRESS,
        help="discard any previously committed chunks for this "
        "configuration and start over",
    )
    parser.add_argument(
        "--throttle", type=float, default=argparse.SUPPRESS,
        metavar="SECONDS",
        help="sleep between chunks (default 0) -- paces the daemon so "
        "mid-run scrapes and kill tests have a window; interruptible",
    )
    parser.add_argument(
        "--retain-hours", type=int, default=argparse.SUPPRESS,
        metavar="N",
        help="rolling retention: keep only the last N sim-hours of "
        "chunk payloads on disk (the hour-chained manifest, and so the "
        "dataset digest, is kept forever); required for "
        "--hours 0 (indefinite); execution detail only -- does not "
        "change the run id or any digest",
    )


def _resume_config(args, ref: str):
    """Rebuild a ServeConfig from an interrupted run's chunk manifest."""
    from repro.obs.runstore.chunks import ChunkStore
    from repro.obs.runstore.store import RunStore, RunStoreError, resolve_runs_dir
    from repro.serve.daemon import ServeConfig

    store = RunStore(resolve_runs_dir(getattr(args, "runs_dir", None)))
    run_id = store.resolve(ref)
    chunks = ChunkStore(store.run_dir(run_id))
    if not chunks.exists():
        raise RunStoreError(
            f"run {run_id} has no committed chunks (not a serve run?)"
        )
    stored = chunks.config()
    retain = getattr(args, "retain_hours", None)
    if retain is None:
        # No flag on the resume line: the run's own recorded retention
        # policy carries over (an indefinite run must stay prunable).
        record = chunks.retention()
        if record is not None:
            retain = record.get("retain_hours")
    return run_id, ServeConfig(
        hours=int(stored["hours"]),
        per_hour=int(stored["per_hour"]),
        seed=int(stored["seed"]),
        fault=stored.get("fault"),
        chunk_hours=int(stored.get("chunk_hours") or 6),
        workers=_requested_workers(args),
        port=int(getattr(args, "port", 0) or 0),
        throttle_seconds=float(getattr(args, "throttle", 0.0) or 0.0),
        runs_dir=getattr(args, "runs_dir", None),
        retain_hours=int(retain) if retain is not None else None,
    )


def _requested_workers(args) -> int:
    workers = getattr(args, "workers", None)
    if workers is None:
        return 1
    if workers < 1:
        raise SystemExit(
            f"repro: error: --workers must be >= 1, got {workers}"
        )
    return int(workers)


def _fresh_config(args):
    from repro.serve.daemon import ServeConfig

    return ServeConfig(
        hours=args.hours,
        per_hour=args.per_hour,
        seed=args.seed,
        fault=getattr(args, "fault", None),
        chunk_hours=int(getattr(args, "chunk_hours", 6) or 6),
        workers=_requested_workers(args),
        port=int(getattr(args, "port", 0) or 0),
        throttle_seconds=float(getattr(args, "throttle", 0.0) or 0.0),
        runs_dir=getattr(args, "runs_dir", None),
        retain_hours=getattr(args, "retain_hours", None),
    )


def _announce(port: Optional[int]) -> None:
    # stderr, not the logger: the scrape address must be visible (and
    # parseable) even without -v, like --serve-metrics does.
    print(
        f"serving the live API on http://127.0.0.1:{port} "
        "(/healthz /status /metrics /alerts /episodes /blame /runs "
        "/history /slo)",
        file=sys.stderr,
    )


def run(args, argv=None) -> int:
    """Dispatch a parsed ``repro serve`` invocation."""
    from repro.cli import _configure_observability
    from repro.obs.runstore.chunks import ChunkStoreError
    from repro.obs.runstore.store import RunStoreError
    from repro.serve.daemon import ServeDaemon, ServeError

    _configure_observability(args)
    resume_ref = getattr(args, "resume", None)
    try:
        if resume_ref:
            expected_id, config = _resume_config(args, resume_ref)
        else:
            expected_id, config = None, _fresh_config(args)
        daemon = ServeDaemon(config, argv=list(argv or sys.argv[1:]))
        if expected_id is not None and daemon.run_id != expected_id:
            # The chunk manifest's config must reproduce the same plan
            # address; anything else means the record was tampered with
            # or written by an incompatible version.
            raise ServeError(
                f"resume target {expected_id} does not match its own "
                f"stored configuration (recomputed {daemon.run_id})"
            )
        daemon.prepare(
            resume=bool(resume_ref), fresh=bool(getattr(args, "fresh", False))
        )
    except (ServeError, ChunkStoreError, RunStoreError, ValueError) as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    print(f"serve run: {daemon.run_id}")
    if daemon.resumed_hours:
        print(
            f"resuming at sim-hour {daemon.resumed_hours} "
            f"({daemon.chunks.committed_hours()} committed)"
        )
    result = daemon.run(announce=_announce)
    if result["completed"]:
        # Same format as `repro simulate` -- the kill-and-resume
        # determinism check in tests/CI compares these lines.
        print(f"\ndataset digest: {result['digest']}")
    else:
        horizon = "∞" if daemon.indefinite else str(result["hours"])
        print(
            f"\nstopped at sim-hour {result['committed_hours']} of "
            f"{horizon} (all committed chunks durable); continue "
            f"with: repro serve --resume {result['run_id']}"
        )
    # The digest of the hours committed so far: at the horizon it
    # equals the line above; mid-run, any run of this plan stopped at
    # the same hour prints the same value.
    print(f"chunk chain: {result['chain']}")
    return 0
