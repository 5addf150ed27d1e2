"""Run one ``repro`` CLI invocation (a *leg*) under the benchmark's probes.

Started by ``bench/run.py`` as a fresh interpreter::

    python3 bench/leg.py --events-fd W --ack-fd R --probe batch|serve \
        [--stop-after-commits N] [--spans FILE] -- <repro argv>

Boundary probes (always installed, one wrapper each) report, as JSON
lines on the events pipe with ``CLOCK_MONOTONIC`` timestamps:

* ``setup_done`` -- ``MonthSimulator.run`` / ``ServeDaemon.run`` entered;
* ``result``     -- the month simulation returned, or a chunk was
  committed (once per chunk);
* ``stop_point`` -- the N-th ``ChunkStore.commit`` returned.  The leg
  then blocks until ``run.py`` has sent SIGTERM and acknowledged, so the
  daemon stops at exactly that chunk boundary.

With ``--spans FILE`` the layer wrappers from :data:`LAYERS` are
installed as well: every call records a span (name, start, end, parent,
thread) in memory, and the spans plus the layer counters are written to
FILE as JSON when the leg ends.  Time spent in forked worker processes
is not recorded there; it shows as the waiting parent's span.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: (module, attribute, span name) for every wrapped layer entry point.
#: ``Class.method`` attributes patch the class; plain functions are
#: rebound in every loaded ``repro`` module that imported them by name.
LAYERS = (
    ("repro.cli", "main", "cli.main"),
    ("repro.world.defaults", "build_default_world", "world.defaults.build"),
    ("repro.world.faults", "FaultGenerator.generate", "world.faults.generate"),
    ("repro.bgp.churn", "ChurnGenerator.run", "bgp.churn.run"),
    ("repro.bgp.routeviews", "CollectorFleet.sessions_with_route",
     "bgp.routeviews.lookup"),
    ("repro.bgp.routeviews", "CollectorFleet.sessions_via",
     "bgp.routeviews.lookup"),
    ("repro.world.simulator", "MonthSimulator.run", "world.simulator.run"),
    ("repro.world.parallel", "run_block", "world.parallel.run_block"),
    ("repro.world.sharedmem", "SharedMonthBuffer.adopt_into",
     "world.sharedmem.adopt"),
    ("repro.core.dataset", "MeasurementDataset.digest", "core.dataset.digest"),
    ("repro.core.dataset", "MeasurementDataset.merge", "core.dataset.merge"),
    ("repro.core.dataset", "MeasurementDataset.block_digest",
     "core.dataset.block_digest"),
    ("repro.core.permanent", "find_permanent_pairs", "core.permanent.find"),
    ("repro.core.blame", "run_blame_analysis", "core.blame.run"),
    ("repro.core.blame", "blame_table", "core.blame.table"),
    *(
        ("repro.core.report", builder, f"core.report.{builder}")
        for builder in (
            "headline_summary", "table3", "figure1", "table4", "figure2",
            "figure3", "figure4", "table5", "table6", "table7", "table8",
            "table9",
        )
    ),
    ("repro.obs.runstore.store", "RunRecorder.record_result",
     "obs.runstore.record_result"),
    ("repro.obs.runstore.evidence", "collect_evidence",
     "obs.runstore.evidence"),
    ("repro.obs.runstore.store", "RunRecorder.finalize",
     "obs.runstore.finalize"),
    ("repro.obs.runstore.store", "RunStore.write", "obs.runstore.store.write"),
    ("repro.obs.runstore.chunks", "ChunkStore.commit",
     "obs.runstore.chunks.commit"),
    ("repro.obs.runstore.chunks", "ChunkStore.replay",
     "obs.runstore.chunks.replay"),
    ("repro.obs.runstore.chunks", "ChunkStore.write_checkpoint",
     "obs.runstore.chunks.checkpoint"),
    ("repro.obs.runstore.chunks", "ChunkStore.prune_payloads",
     "obs.runstore.chunks.prune"),
    ("repro.obs.online.detector", "OnlineDetector.update",
     "obs.online.detector.update"),
    ("repro.obs.online.detector", "OnlineDetector.export_state",
     "obs.online.detector.export_state"),
    ("repro.obs.horizon.history", "HistoryStore.on_hour",
     "obs.horizon.history.on_hour"),
    ("repro.obs.horizon.slo", "SLOEngine.on_hour", "obs.horizon.slo.on_hour"),
    ("repro.obs.horizon.rolling", "fold_block", "obs.horizon.rolling.fold"),
    ("repro.serve.daemon", "hour_entity_stats_from_block",
     "serve.daemon.hour_stats"),
    ("repro.serve.daemon", "ServeDaemon.prepare", "serve.daemon.prepare"),
    ("repro.serve.daemon", "ServeDaemon.run", "serve.daemon.run"),
    ("repro.obs.live.session", "LiveSession.stop", "obs.live.stop"),
)


def _resolve(module_name: str, attribute: str):
    """(owner, name, raw attribute) for a ``LAYERS`` entry."""
    module = __import__(module_name, fromlist=["_"])
    owner = module
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, inspect.getattr_static(owner, name)


def _install(owner, name: str, make_wrapper) -> None:
    """Replace ``owner.name`` by ``make_wrapper(function)``.

    Class attributes keep their classmethod/staticmethod kind; a module
    function is also rebound wherever another ``repro`` module imported
    it by name (``from repro.world.parallel import run_block``).
    """
    raw = inspect.getattr_static(owner, name)
    kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
    function = raw.__func__ if kind else raw
    wrapper = functools.wraps(function)(make_wrapper(function))
    setattr(owner, name, kind(wrapper) if kind else wrapper)
    if inspect.isclass(owner):
        return
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if (
            namespace is not None
            and getattr(module, "__name__", "").startswith("repro")
            and namespace.get(name) is function
        ):
            namespace[name] = wrapper


class Probes:
    """The boundary events ``run.py`` needs even in an untraced leg."""

    def __init__(self, events, ack, stop_after_commits) -> None:
        self._events = events
        self._ack = ack
        self._stop_after = stop_after_commits
        self._setup_sent = False
        self.results = 0

    def send(self, event: str) -> None:
        self._events.write(
            json.dumps({"event": event, "t": time.monotonic()}) + "\n"
        )
        self._events.flush()

    def setup_done(self) -> None:
        if not self._setup_sent:
            self._setup_sent = True
            self.send("setup_done")

    def install(self, probe: str) -> None:
        if probe == "batch":
            from repro.world.simulator import MonthSimulator

            _install(MonthSimulator, "run", self._wrap_month)
        else:
            from repro.obs.runstore.chunks import ChunkStore
            from repro.serve.daemon import ServeDaemon

            _install(ServeDaemon, "run", self._wrap_run)
            _install(ChunkStore, "commit", self._wrap_commit)

    def _wrap_run(self, function):
        def probed(*args, **kwargs):
            self.setup_done()
            return function(*args, **kwargs)

        return probed

    def _wrap_month(self, function):
        def probed(*args, **kwargs):
            self.setup_done()
            result = function(*args, **kwargs)
            if not self.results:
                self.results += 1
                self.send("result")
            return result

        return probed

    def _wrap_commit(self, function):
        def probed(*args, **kwargs):
            entry = function(*args, **kwargs)
            self.results += 1
            self.send("result")
            if self.results == self._stop_after:
                self.send("stop_point")
                self._ack.read(1)
            return entry

        return probed


class LayerTracer:
    """In-memory spans and counters around the :data:`LAYERS` calls."""

    def __init__(self) -> None:
        self.spans = []  # [name, start, end, parent index, thread name]
        self.counters = {}
        self.update_ms = []
        self.detectors = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def count(self, name: str, amount=1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def install(self) -> None:
        # Everything is imported before anything is wrapped, so the
        # by-name rebinding in _install sees every importing module.
        targets = [_resolve(module, attribute) for module, attribute, _ in LAYERS]
        for (owner, name, raw), (_, _, span) in zip(targets, LAYERS):
            function = getattr(raw, "__func__", raw)
            if inspect.isgeneratorfunction(function):
                _install(owner, name, functools.partial(self._gen, span))
            else:
                _install(owner, name, functools.partial(self._call, span))

    def _open(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.spans)
            self.spans.append([
                name, time.monotonic(), None, stack[-1] if stack else None,
                threading.current_thread().name,
            ])
        stack.append(index)
        return index

    def _close(self, index: int) -> float:
        end = time.monotonic()
        self._local.stack.pop()
        span = self.spans[index]
        span[2] = end
        return end - span[1]

    def _nested(self, name: str) -> bool:
        """Is a span of this name already open on this thread?"""
        stack = self._local.__dict__.get("stack", [])
        return any(self.spans[i][0] == name for i in stack)

    def _call(self, name: str, function):
        def traced(*args, **kwargs):
            outermost = not self._nested(name)
            rss_before = _maxrss_mb() if name == "core.blame.run" else 0.0
            index = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                seconds = self._close(index)
            if outermost:
                self._observe(name, args, result, seconds, rss_before)
            return result

        return traced

    def _gen(self, name: str, function):
        """One span per resumption, so the consumer's work between items
        is not charged to the generator."""

        def traced(*args, **kwargs):
            iterator = function(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    seconds = self._close(index)
                self._observe(name, args, item, seconds, 0.0)
                yield item

        return traced

    def _observe(self, name, args, result, seconds, rss_before) -> None:
        """Layer counters taken at the span boundary."""
        if name == "world.faults.generate":
            self.count("bgp.messages.updates", len(result.bgp_archive))
        elif name == "world.simulator.run":
            self.count(
                "world.simulator.transactions",
                int(result.dataset.transactions.sum()),
            )
        elif name == "core.dataset.digest":
            dataset = args[0]
            # int64-normalised bytes hashed, computed from array sizes.
            self.count("core.dataset.digest_bytes", sum(
                getattr(dataset, field).size * 8
                for field in dataset._ARRAY_FIELDS
            ))
        elif name == "core.blame.run":
            self.count("core.blame.rss_rise_mb", _maxrss_mb() - rss_before)
        elif name == "obs.runstore.chunks.commit":
            store, arrays = args[0], args[3]
            self.count(
                "world.simulator.transactions",
                int(arrays["transactions"].sum()),
            )
            self.count(
                "obs.runstore.chunks.payload_bytes",
                (store.chunks_dir / result["file"]).stat().st_size,
            )
            self.counters["obs.runstore.chunks.manifest_bytes"] = (
                store.manifest_path.stat().st_size
            )
        elif name == "obs.runstore.chunks.replay":
            self.count("obs.runstore.chunks.replayed")
        elif name == "obs.runstore.chunks.checkpoint":
            self.counters["obs.runstore.chunks.checkpoint_bytes"] = (
                args[0].checkpoint_path.stat().st_size
            )
        elif name == "obs.online.detector.update":
            detector, event = args[0], args[1]
            with self._lock:
                if not any(d is detector for d in self.detectors):
                    self.detectors.append(detector)
                if event.get("type") == "hour_stats":
                    self.update_ms.append(seconds * 1000.0)

    def document(self) -> dict:
        counters = dict(self.counters)
        counters["obs.online.detector.hours_folded"] = sum(
            d.hours_folded for d in self.detectors
        )
        return {
            "spans": self.spans,
            "counters": counters,
            "update_ms": self.update_ms,
        }


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="leg.py")
    parser.add_argument("--events-fd", type=int, required=True)
    parser.add_argument("--ack-fd", type=int, required=True)
    parser.add_argument("--probe", choices=("batch", "serve"), required=True)
    parser.add_argument("--stop-after-commits", type=int, default=None)
    parser.add_argument("--spans", default=None)
    parser.add_argument("repro_argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    repro_argv = opts.repro_argv
    if repro_argv[:1] == ["--"]:
        repro_argv = repro_argv[1:]
    with os.fdopen(opts.events_fd, "w") as events, \
            os.fdopen(opts.ack_fd, "rb", buffering=0) as ack:
        import repro.cli

        tracer = LayerTracer() if opts.spans else None
        if tracer is not None:
            tracer.install()
        probes = Probes(events, ack, opts.stop_after_commits)
        probes.install(opts.probe)
        try:
            return repro.cli.main(repro_argv)
        finally:
            if tracer is not None:
                Path(opts.spans).write_text(json.dumps(tracer.document()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
