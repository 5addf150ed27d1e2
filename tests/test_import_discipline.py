"""Each process imports only what its command runs.

Every check runs in a fresh interpreter, because the test session
itself has long since imported everything.  The rules pinned here:

* building the ``repro`` parser loads no subcommand engine and no
  numpy -- a subcommand's engine loads when it is dispatched;
* a batch ``--detect`` run without a port never loads the HTTP server;
* a pooled worker imports nothing after the fork -- whatever a shard
  needs, the parent has already loaded -- in a batch block and in the
  serve daemon's pool, which serves every chunk of the run;
* the read-only ``repro runs`` verbs read manifests without numpy;
* ``report`` and ``simulate --detect`` never load ``numpy.ma`` (numpy's
  median and percentile do, on first call);
* the top-level ``repro`` package loads its public names on first use;
* each of ``serve``, ``simulate --detect`` and ``report`` stays inside a
  module budget: no linter, no other subcommand's CLI module, none of
  the packet-level DNS/net substrate and no ``tomllib`` -- with bytecode
  writing off, every module a command loads is compiled on every run.
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


_NO_MASKED_ARRAYS = """
import io, json, sys, contextlib
from repro import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_report_and_detect_never_load_numpy_ma(tmp_path):
    base = ["--runs-dir", str(tmp_path), "--hours", "24", "--per-hour", "2"]
    for argv in (
        base + ["report", "--workers", "1"],
        base + ["simulate", "--workers", "1", "--detect"],
    ):
        report = _run_script(_NO_MASKED_ARRAYS, *argv)
        assert report == {"code": 0, "numpy.ma": False}, argv


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


_DAEMON_WORKERS = """
import json, os, sys, tempfile
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.world import parallel

out = tempfile.mkdtemp()
at_fork = []
os.register_at_fork(after_in_child=lambda: at_fork.append(set(sys.modules)))
simulate_shard = parallel._simulate_shard


def recording_shard(payload, sink=None):
    shard = simulate_shard(payload, sink)
    name = "%d-%02d" % (os.getpid(), payload[0])
    with open(os.path.join(out, name), "w") as fh:
        fh.write(json.dumps(sorted(set(sys.modules) - at_fork[0])))
    return shard


parallel._simulate_shard = recording_shard
daemon = ServeDaemon(ServeConfig(
    hours=4, per_hour=1, chunk_hours=2, workers=1,
    runs_dir=os.path.join(out, "runs"),
))
daemon.prepare()
result = daemon.run()
names = sorted(n for n in os.listdir(out) if n != "runs")
added = []
for name in names:
    with open(os.path.join(out, name)) as fh:
        added.append(json.load(fh))
print(json.dumps({
    "completed": result["completed"],
    "workers": len({name.split("-")[0] for name in names}),
    "added": added,
}))
"""


def test_daemon_worker_imports_nothing_after_the_fork():
    # One forked worker simulates both chunks of the run.
    report = _run_script(_DAEMON_WORKERS)
    assert report == {"completed": True, "workers": 1, "added": [[], []]}


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


_COMMAND_MODULES = """
import io, json, sys, contextlib
from repro import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(sys.modules)}))
"""

#: Modules no simulating command loads: the packet-level substrate the
#: vectorised engine never runs, and the TOML parser only a rule file
#: needs.
_NEVER_LOADED = {
    "repro.dns.resolver", "repro.dns.server", "repro.dns.cache",
    "repro.net.packet", "repro.net.loss", "repro.net.latency", "tomllib",
}

#: Every subcommand module the parser can configure.
_COMMAND_CLIS = {
    "repro.lint.cli", "repro.obs.runstore.cli", "repro.obs.online.cli",
    "repro.obs.horizon.cli", "repro.serve.cli",
}


def _command_modules(argv):
    report = _run_script(_COMMAND_MODULES, *argv)
    assert report["code"] == 0, argv
    return set(report["loaded"])


def _assert_budget(loaded, own_cli=None):
    assert not {m for m in loaded if m.startswith("repro.lint")}
    assert loaded & _COMMAND_CLIS == ({own_cli} if own_cli else set())
    assert not loaded & _NEVER_LOADED


def test_serve_loads_only_its_own_modules(tmp_path):
    loaded = _command_modules([
        "--runs-dir", str(tmp_path), "--hours", "4", "--per-hour", "1",
        "serve", "--chunk-hours", "2", "--retain-hours", "2",
        "--fault", "server:berkeley.edu:1-3:0.8",
    ])
    _assert_budget(loaded, own_cli="repro.serve.cli")
    # A serve run never collects attribution evidence.
    assert "repro.obs.runstore.evidence" not in loaded


def test_detect_and_report_load_only_their_own_modules(tmp_path):
    base = ["--runs-dir", str(tmp_path), "--hours", "4", "--per-hour", "1"]
    for argv in (
        base + ["simulate", "--workers", "1", "--detect"],
        base + ["report", "--workers", "1"],
    ):
        _assert_budget(_command_modules(argv))


def test_top_level_names_resolve_on_first_use():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
