"""Every kill point of a retention run resumes to the uninterrupted run.

With ``--retain-hours`` the daemon keeps one fold-state checkpoint and
rewrites it only when a prune would otherwise delete a payload that a
resume replays.  A 24-hour plan in 4-hour chunks with 8 hours retained
is stopped at each chunk boundary in turn and resumed: the digest, the
alert stream's bytes, ``/history`` and ``/slo`` must all equal the
uninterrupted run's, and ``repro slo`` on the stopped store must equal
what ``/slo`` served at that hour.
"""

from __future__ import annotations

import json

import pytest

from repro import cli, obs
from repro.obs.runstore.chunks import ChunkStore
from repro.obs.runstore.store import RunStore
from repro.serve.daemon import ServeConfig, ServeDaemon

SERVE_HOURS = 24
PER_HOUR = 2
SEED = 20050101
CHUNK_HOURS = 4
RETAIN = 8

HISTORY_QUERIES = (
    {"series": "overall", "res": "hour"},
    {"series": "client", "res": "6h"},
    {"series": "server", "res": "day"},
    {"series": "region", "res": "day"},
)


def _daemon(runs_dir, **kwargs):
    obs.set_registry(obs.MetricsRegistry())
    config = ServeConfig(
        hours=SERVE_HOURS, per_hour=PER_HOUR, seed=SEED,
        chunk_hours=CHUNK_HOURS, retain_hours=RETAIN, runs_dir=str(runs_dir),
    )
    return ServeDaemon(config, **kwargs)


def _read_surfaces(daemon):
    """``/history`` (several queries) and ``/slo``, as canonical JSON."""
    return json.dumps({
        "history": [daemon.history.document(q) for q in HISTORY_QUERIES],
        "slo": daemon.slo.document(),
    }, sort_keys=True)


def _alerts_bytes(daemon):
    store = RunStore(daemon.store.root)
    manifest = store.load(daemon.run_id)
    return (store.run_dir(daemon.run_id) / manifest.alerts_file).read_bytes()


def _check_checkpoint_covers_the_floor(daemon, entry):
    """At every boundary, a resume's replay start is still on disk."""
    chunks = ChunkStore(daemon.store.run_dir(daemon.run_id))
    checkpoint = chunks.load_checkpoint()
    hour = int(checkpoint["hour"]) if checkpoint is not None else 0
    floor = max(0, int(entry["hour_stop"]) - RETAIN)
    assert hour >= floor
    assert chunks.pruned_hours() <= hour


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """The reference run: its final state, the ``/slo`` document at
    every boundary, and the hours it wrote checkpoints at."""
    checkpoint_hours = []
    write_checkpoint = ChunkStore.write_checkpoint

    def recording(store, document):
        checkpoint_hours.append(int(document["hour"]))
        return write_checkpoint(store, document)

    slo_at = {}

    def at_boundary(daemon, entry):
        _check_checkpoint_covers_the_floor(daemon, entry)
        slo_at[int(entry["hour_stop"])] = json.loads(
            json.dumps(daemon.slo.document())
        )

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ChunkStore, "write_checkpoint", recording)
        daemon = _daemon(
            tmp_path_factory.mktemp("uninterrupted"),
            chunk_callback=at_boundary,
        )
        daemon.prepare()
        result = daemon.run()
    assert result["completed"]
    return {
        "result": result,
        "alerts": _alerts_bytes(daemon),
        "surfaces": _read_surfaces(daemon),
        "slo_at": slo_at,
        "checkpoint_hours": checkpoint_hours,
    }


def test_checkpoints_are_written_only_when_a_prune_needs_one(uninterrupted):
    # Floors 0, 0, 4 (passes hour 0), 8, 12, 16 (passes hour 12).
    assert uninterrupted["checkpoint_hours"] == [12, 24]


@pytest.mark.parametrize(
    "stop_hour", range(CHUNK_HOURS, SERVE_HOURS, CHUNK_HOURS)
)
def test_stop_and_resume_at_every_boundary(
    uninterrupted, tmp_path, capsys, stop_hour
):
    def stop_at(daemon, entry):
        _check_checkpoint_covers_the_floor(daemon, entry)
        if entry["hour_stop"] >= stop_hour:
            daemon.request_stop()

    first = _daemon(tmp_path / "runs", chunk_callback=stop_at)
    first.prepare()
    assert first.run()["committed_hours"] == stop_hour

    # `repro slo` rebuilds, from the stopped store, what /slo served.
    capsys.readouterr()
    assert cli.main([
        "slo", "--runs-dir", str(tmp_path / "runs"), first.run_id, "--json",
    ]) == 0
    rebuilt = json.loads(capsys.readouterr().out)
    assert rebuilt == uninterrupted["slo_at"][stop_hour]

    resumed = _daemon(
        tmp_path / "runs", chunk_callback=_check_checkpoint_covers_the_floor
    )
    resumed.prepare(resume=True)
    assert resumed.cursor == stop_hour
    done = resumed.run()
    reference = uninterrupted["result"]
    assert done["completed"]
    assert done["digest"] == reference["digest"]
    assert done["chain"] == reference["chain"]
    assert _alerts_bytes(resumed) == uninterrupted["alerts"]
    assert _read_surfaces(resumed) == uninterrupted["surfaces"]
