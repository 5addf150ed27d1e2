"""Each process imports only what its command runs.

Every check runs in a fresh interpreter, because the test session
itself has long since imported everything.  The rules pinned here:

* building the ``repro`` parser loads no subcommand engine and no
  numpy -- a subcommand's engine loads when it is dispatched;
* a batch ``--detect`` run without a port never loads the HTTP server;
* a pooled worker imports nothing after the fork -- whatever a shard
  needs, the parent has already loaded;
* the read-only ``repro runs`` verbs read manifests without numpy;
* the top-level ``repro`` package loads its public names on first use.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro
from repro import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_script(script: str, *args: str) -> dict:
    """Run ``script`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


_PARSER_ONLY = """
import json, sys
from repro import cli
cli._build_parser()
watched = sys.argv[1:]
print(json.dumps(sorted(name for name in watched if name in sys.modules)))
"""


def test_building_the_parser_loads_no_engine():
    loaded = _run_script(
        _PARSER_ONLY,
        "numpy", "http.server", "repro.serve.daemon",
        "repro.obs.live.server", "repro.obs.online.detector",
        "repro.obs.horizon.slo", "repro.lint.engine",
    )
    assert loaded == []


_DETECT_RUN = """
import json, sys
from repro import cli
code = cli.main(["--hours", "2", "--per-hour", "1", "simulate", "--detect"])
print(json.dumps({
    "code": code,
    "loaded": sorted(
        name for name in ("http.server", "repro.obs.live.server",
                          "repro.obs.live.dashboard")
        if name in sys.modules
    ),
    "detector": "repro.obs.online.detector" in sys.modules,
}))
"""


def test_detect_run_without_a_port_never_loads_http_server():
    report = _run_script(_DETECT_RUN)
    assert report == {"code": 0, "loaded": [], "detector": True}


_POOLED_WORKERS = """
import json, os, sys, tempfile
from repro.world import parallel
from repro.world.defaults import build_default_world
from repro.world.simulator import MonthSimulator

out = tempfile.mkdtemp()
at_fork = []
os.register_at_fork(after_in_child=lambda: at_fork.append(set(sys.modules)))
simulate_shard = parallel._simulate_shard


def recording_shard(payload, sink=None):
    shard = simulate_shard(payload, sink)
    with open(os.path.join(out, str(os.getpid())), "w") as fh:
        fh.write(json.dumps(sorted(set(sys.modules) - at_fork[0])))
    return shard


parallel._simulate_shard = recording_shard
arrays, fallback = parallel.run_block(
    MonthSimulator(build_default_world(hours=4)), 0, 4, workers=2
)
added = {}
for name in sorted(os.listdir(out)):
    with open(os.path.join(out, name)) as fh:
        added[name] = json.load(fh)
print(json.dumps({"fallback": fallback, "added": list(added.values())}))
"""


def test_pooled_workers_import_nothing_after_the_fork():
    report = _run_script(_POOLED_WORKERS)
    assert report == {"fallback": None, "added": [[], []]}


_RUNS_VERB = """
import json, sys
from repro import cli
code = cli.main(["runs", "--runs-dir", *sys.argv[1:]])
print(json.dumps({
    "code": code,
    "loaded": sorted(
        name for name in ("numpy", "repro.core.dataset") if name in sys.modules
    ),
}))
"""


def test_read_only_runs_verbs_never_load_numpy(tmp_path):
    empty = str(tmp_path / "empty")
    assert _run_script(_RUNS_VERB, empty, "list") == {"code": 0, "loaded": []}
    registry = str(tmp_path / "registry")
    for seed in ("1", "2"):
        assert cli.main([
            "--runs-dir", registry, "--hours", "2", "--per-hour", "1",
            "--seed", seed, "simulate", "--workers", "1",
        ]) == 0
    first, second = sorted(os.listdir(registry))
    for verb in (["list"], ["show", first], ["diff", first, second]):
        report = _run_script(_RUNS_VERB, registry, *verb)
        # `runs diff` exits 1: the two seeds' digests differ.
        assert report == {"code": 1 if verb[0] == "diff" else 0, "loaded": []}


_LINT_RUN = """
import json, sys
from repro import obs
from repro.lint.cli import main
code = main([sys.argv[1]])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


def test_linter_and_obs_never_load_numpy():
    report = _run_script(
        _LINT_RUN, os.path.join(ROOT, "src", "repro", "obs", "runtime.py")
    )
    assert report == {"code": 0, "numpy": False}


def test_top_level_names_resolve_on_first_use():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
