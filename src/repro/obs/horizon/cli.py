"""``repro slo``: the error-budget table for a recorded serve run.

::

    repro slo latest
    repro slo <run-id-or-prefix> --json

Rebuilds the run's SLO ledger from its durable chunk store.  Retention
runs restore the fold state from the chain-verified checkpoint and
replay only the chunks committed after it was last written; runs
without retention replay every committed chunk.  Either way the table
is bit-identical to what the daemon's ``/slo`` endpoint served at the
same sim-hour -- the ledger is a pure function of the committed hours.

Non-serve runs (no chunk store) get a clear message and exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro slo`` options."""
    parser.add_argument(
        "ref", nargs="?", default="latest",
        help="serve run id, unique prefix, or 'latest' (default)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the raw /slo document instead of the table",
    )
    parser.add_argument(
        "--runs-dir", metavar="DIR", default=argparse.SUPPRESS,
        help="registry root (default: $REPRO_RUNS_DIR or ./runs)",
    )


def rebuild_slo(chunks, config) -> "object":
    """Rebuild an :class:`SLOEngine` from a run's durable chunk store.

    The checkpoint (retention runs) carries the ledger up to its chunk
    boundary; chunks past that boundary -- or all of them when there is
    no checkpoint -- are replayed through the same per-hour fold the
    daemon runs.
    """
    from repro.core.dataset import entity_hour_sums
    from repro.obs.horizon.slo import SLOEngine
    from repro.serve.daemon import plan_entities

    engine = SLOEngine()
    start_hour = 0
    checkpoint = chunks.load_checkpoint()
    if checkpoint is not None:
        engine.restore_state(checkpoint["slo"])
        start_hour = int(checkpoint["hour"])
    else:
        # No checkpoint: seed entity names from the run's own world
        # plan (cheap -- builds the topology, simulates nothing).
        engine.on_run_start(plan_entities(config))
    for entry, arrays in chunks.replay(start_hour=start_hour):
        h0, h1 = int(entry["hour_start"]), int(entry["hour_stop"])
        sums = entity_hour_sums(arrays)
        for t in range(h1 - h0):
            engine.on_hour(h0 + t, *(
                sums[key][:, t] for key in ("ct", "cf", "st", "sf")
            ))
    return engine


def run(args) -> int:
    """Dispatch a parsed ``repro slo`` invocation."""
    from repro.obs.horizon.slo import render_slo_table
    from repro.obs.runstore.chunks import ChunkStore, ChunkStoreError
    from repro.obs.runstore.store import RunStore, RunStoreError, resolve_runs_dir

    store = RunStore(resolve_runs_dir(getattr(args, "runs_dir", None)))
    try:
        run_id = store.resolve(args.ref)
        chunks = ChunkStore(store.run_dir(run_id))
        if not chunks.exists():
            print(
                f"repro slo: run {run_id} has no chunk store -- the SLO "
                "ledger is rebuilt from committed serve chunks; this "
                "looks like a batch run (try `repro serve`)",
                file=sys.stderr,
            )
            return 2
        engine = rebuild_slo(chunks, chunks.config())
    except (RunStoreError, ChunkStoreError, ValueError, KeyError) as exc:
        print(f"repro slo: {exc}", file=sys.stderr)
        return 2
    document = engine.document()
    if getattr(args, "as_json", False):
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(f"run {run_id}")
    print(render_slo_table(document))
    return 0
