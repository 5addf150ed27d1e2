"""repro.obs.live: bus, aggregator, dashboard, /metrics, timeline.

The acceptance tests live at the bottom: the dataset digest is
bit-identical with telemetry on or off at 1 and 4 workers, the event
stream lands in the run's one log (``trace.jsonl``), and ``repro runs
show --timeline`` replays it end to end through the CLI.
"""

from __future__ import annotations

import io
import json
import time
import urllib.request

import pytest

from repro import cli
from repro.obs import runtime
from repro.obs.live.aggregate import LiveAggregator
from repro.obs.live.bus import QueueEmitter, TelemetryBus, inherited_emitter
from repro.obs.live.dashboard import (
    LiveDashboard, ansi_capable, render, render_plain, sparkline,
)
from repro.obs.live.server import MetricsServer
from repro.obs.live.session import LiveSession
from repro.obs.live.timeline import render_timeline, replay
from repro.obs.metrics import MetricsRegistry
from repro.obs.replay import load_trace
from repro.obs.tracing import event_record


def _clock(values):
    """An injected clock stepping through ``values`` (last one sticks)."""
    state = {"i": 0}

    def tick():
        i = min(state["i"], len(values) - 1)
        state["i"] += 1
        return values[i]

    return tick


def _event(name, t, worker, seq, **fields):
    """One progress event as the bus stamps it."""
    return event_record(name, t, {"worker": worker, "seq": seq, **fields})


def _synthetic_run(workers=2, hours_per_worker=3, t0=100.0):
    """A plausible event stream: run_start .. hour_done .. run_done."""
    events = [_event(
        "run_start", t0, None, 0, hours=workers * hours_per_worker,
        workers=workers, engine="fast",
    )]
    t = t0
    for w in range(workers):
        lo = w * hours_per_worker
        events.append(_event(
            "shard_start", t0 + 0.01, w, 0,
            hour_start=lo, hour_stop=lo + hours_per_worker,
        ))
    for h in range(hours_per_worker):
        for w in range(workers):
            t += 1.0
            events.append(_event(
                "hour_done", t, w, h + 1,
                hour=w * hours_per_worker + h, transactions=1000,
                dns=12, tcp=8, http=2, masked=1,
            ))
    for w in range(workers):
        t += 0.5
        events.append(_event(
            "shard_done", t, w, 99,
            hour_start=w * hours_per_worker,
            hour_stop=(w + 1) * hours_per_worker,
            transactions=hours_per_worker * 1000,
            elapsed_seconds=3.0, cpu_seconds=2.5,
        ))
    events.append(_event(
        "run_done", t + 1.0, None, 100,
        transactions=workers * hours_per_worker * 1000,
        dns=72, tcp=48, http=12, masked=6,
    ))
    return events


class TestQueueEmitter:
    def test_stamps_type_time_seq_worker(self):
        got = []
        emitter = QueueEmitter(got.append, worker=3, clock=_clock([5.0, 6.0]))
        emitter.emit("hour_done", hour=7, transactions=10)
        emitter.emit("hour_done", hour=8)
        # A progress event is a trace event.
        assert got[0] == {
            "type": "event", "name": "hour_done", "time": 5.0, "span": None,
            "fields": {"worker": 3, "seq": 0, "hour": 7, "transactions": 10},
        }
        assert got[1]["fields"]["seq"] == 1

    def test_put_errors_are_swallowed(self):
        def boom(event):
            raise OSError("queue closed")

        emitter = QueueEmitter(boom, worker=0)
        emitter.emit("hour_done", hour=1)  # must not raise

    def test_inherited_emitter_null_without_queue(self):
        assert inherited_emitter(0) is runtime.NULL_EMITTER

    def test_full_queue_drops_with_counter(self):
        import queue as queue_module

        q = queue_module.Queue(maxsize=2)
        runtime.set_registry(MetricsRegistry())
        try:
            emitter = QueueEmitter(q.put_nowait, worker=0)
            for hour in range(5):
                emitter.emit("hour_done", hour=hour)  # never blocks
            assert q.qsize() == 2
            assert emitter.drops == 3
            assert (
                runtime.registry().snapshot()["live_events_dropped_total"]
                == 3.0
            )
        finally:
            runtime.set_registry(MetricsRegistry())


class TestTelemetryBus:
    def test_events_reach_subscribers_and_sink(self, tmp_path):
        path = tmp_path / "spool.jsonl"
        bus = TelemetryBus(spool_path=str(path))
        seen = []
        bus.subscribe(seen.append)
        bus.start()
        try:
            assert runtime.emitter().enabled
            runtime.emitter().emit("hour_done", hour=1, transactions=10)
            runtime.emitter().emit("run_done", transactions=10)
        finally:
            bus.stop()
        assert not runtime.emitter().enabled  # restored
        # Only what was emitted: the bus adds no event of its own.
        assert [e["name"] for e in seen] == ["hour_done", "run_done"]
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines == seen
        assert {l["type"] for l in lines} == {"event"}

    def test_raising_subscriber_is_detached(self, tmp_path):
        bus = TelemetryBus()
        seen = []

        def bad(event):
            raise RuntimeError("subscriber bug")

        bus.subscribe(bad)
        bus.subscribe(seen.append)
        bus.start()
        try:
            runtime.emitter().emit("hour_done", hour=1)
            runtime.emitter().emit("hour_done", hour=2)
        finally:
            bus.stop()
        # The good subscriber saw everything despite the bad one.
        assert [e for e in seen if e["name"] == "hour_done"]

    def test_stalled_consumer_cannot_block_workers(self, tmp_path):
        # A bounded queue with nobody draining it (the worst stall):
        # every emit beyond the capacity returns immediately and is
        # counted as a drop, never blocking the simulating process.
        bus = TelemetryBus(
            spool_path=str(tmp_path / "spool.jsonl"), maxsize=4
        )
        emitter = bus.emitter()
        for hour in range(20):
            emitter.emit("hour_done", hour=hour)
        assert emitter.drops == 16  # exactly capacity got through
        # Unclog so the mp.Queue feeder thread can exit cleanly.
        for _ in range(4):
            bus.queue.get(timeout=5)


class TestLiveAggregator:
    def test_folds_a_full_run(self):
        agg = LiveAggregator(clock=_clock([0.0]))
        for event in _synthetic_run(workers=2, hours_per_worker=3):
            agg.update(event)
        snap = agg.snapshot()
        assert snap["engine"] == "fast"
        assert snap["hours_total"] == 6
        assert snap["hours_done"] == 6
        assert snap["workers"] == 2
        assert snap["transactions"] == 6000
        assert snap["failures"] == {
            "dns": 72, "tcp": 48, "http": 12, "masked": 6,
        }
        assert snap["finished"]
        assert snap["eta_seconds"] is None  # done: nothing left to predict
        assert len(snap["lanes"]) == 2
        lane = snap["lanes"][1]
        assert (lane["hour_start"], lane["hour_stop"]) == (3, 6)
        assert lane["hours_done"] == 3
        assert lane["done"]
        assert lane["cpu_seconds"] == pytest.approx(2.5)
        # One sparkline series per failure type, one point per hour.
        assert set(snap["rate_window"]) == {"dns", "tcp", "http", "masked"}
        assert all(len(s) == 6 for s in snap["rate_window"].values())

    def test_eta_mid_run(self):
        events = _synthetic_run(workers=1, hours_per_worker=4)
        # Stop before shard_done/run_done: 4 hour_done over 4 seconds.
        mid = [e for e in events if e["name"] != "run_done"
               and e["name"] != "shard_done"]
        agg = LiveAggregator(clock=_clock([104.0]))
        agg.hours_total = None
        for event in mid:
            agg.update(event)
        agg.hours_total = 8  # pretend half the run is still to come
        snap = agg.snapshot()
        assert snap["hours_done"] == 4
        assert snap["eta_seconds"] == pytest.approx(4.0, rel=0.3)

    def test_window_prunes_old_hours(self):
        agg = LiveAggregator(window_hours=2)
        for event in _synthetic_run(workers=1, hours_per_worker=5):
            agg.update(event)
        snap = agg.snapshot()
        assert all(len(s) == 2 for s in snap["rate_window"].values())
        # Totals still cover every hour, only the window is bounded.
        assert snap["transactions"] == 5000

    def test_to_registry_gauges(self):
        agg = LiveAggregator(clock=_clock([0.0]))
        for event in _synthetic_run(workers=2, hours_per_worker=3):
            agg.update(event)
        snapshot = agg.to_registry().snapshot()
        assert snapshot["live_hours_done"] == 6.0
        assert snapshot["live_transactions"] == 6000.0
        assert snapshot["live_finished"] == 1.0
        assert snapshot['live_failures{type="dns"}'] == 72.0
        assert snapshot['live_worker_hours_done{worker="1"}'] == 3.0


class TestDashboard:
    def test_sparkline_scales_to_peak(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] == "▁" and line[-1] == "█"
        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0]) == "▁▁"

    def test_render_full_frame(self):
        agg = LiveAggregator(clock=_clock([0.0]))
        for event in _synthetic_run(workers=2, hours_per_worker=3):
            agg.update(event)
        frame = render(agg.snapshot())
        assert "repro simulate -- live (fast engine)" in frame
        assert "6/6 hours" in frame
        assert "-- workers --" in frame
        assert "w0" in frame and "w1" in frame
        assert "-- failure rates" in frame
        # Without detection there is no threshold to show.
        assert "episode threshold" not in frame
        assert "simulation finished" in frame

    def test_render_shows_the_detectors_thresholds(self):
        agg = LiveAggregator(clock=_clock([0.0]))
        for event in _synthetic_run():
            agg.update(event)
        snapshot = agg.snapshot()
        snapshot["online"] = {
            "alert_count": 0, "alerts": [],
            "thresholds": {"client": 0.0421, "server": None},
        }
        frame = render(snapshot)
        # The detector's per-side knee; a degenerate side runs at the
        # fallback f.
        assert "episode thresholds: client 4.21%, server fallback" in frame

    def test_render_plain_is_one_line(self):
        agg = LiveAggregator(clock=_clock([0.0]))
        for event in _synthetic_run():
            agg.update(event)
        line = render_plain(agg.snapshot())
        assert "\n" not in line
        assert "live: 6/6 hours" in line
        assert "dns=72" in line

    def test_ansi_capable_respects_dumb_term(self):
        tty = io.StringIO()
        tty.isatty = lambda: True
        assert not ansi_capable(tty, environ={"TERM": "dumb"})
        assert not ansi_capable(tty, environ={})
        assert ansi_capable(tty, environ={"TERM": "xterm-256color"})
        assert not ansi_capable(io.StringIO(), environ={"TERM": "xterm"})

    def test_dashboard_throttles_and_final_frame(self):
        agg = LiveAggregator(clock=_clock([0.0]))
        stream = io.StringIO()
        dash = LiveDashboard(
            agg, stream=stream, interval_seconds=10.0,
            clock=_clock([0.0, 1.0, 2.0, 30.0]), ansi=False,
        )
        for event in _synthetic_run():
            agg.update(event)
            dash.update(event)
        frames_mid = dash.frames
        dash.close()  # always draws the completed state
        assert dash.frames == frames_mid + 1
        assert "live: " in stream.getvalue()

    def test_ansi_mode_homes_and_clears(self):
        agg = LiveAggregator(clock=_clock([0.0]))
        for event in _synthetic_run():
            agg.update(event)
        stream = io.StringIO()
        dash = LiveDashboard(agg, stream=stream, ansi=True)
        dash.draw()
        assert stream.getvalue().startswith("\x1b[H\x1b[J")


class TestMetricsServer:
    def test_scrape_serves_live_gauges(self):
        agg = LiveAggregator(clock=_clock([0.0]))
        for event in _synthetic_run():
            agg.update(event)
        registry = MetricsRegistry()
        registry.counter("scrape_smoke_total").inc(3)
        server = MetricsServer(
            0, aggregator=agg, registry_provider=lambda: registry
        )
        server.start()
        try:
            port = server.port
            assert port
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=10
            ) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                body = resp.read().decode("utf-8")
            assert "repro_scrape_smoke_total 3" in body
            assert "repro_live_hours_done 6" in body
            assert 'repro_live_failures{type="dns"} 72' in body
            # Thresholds are the detector's alone; the aggregator
            # exports none.
            assert "threshold" not in body
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/", timeout=10
            ) as resp:
                assert b"scrape /metrics" in resp.read()
            assert server.scrapes == 1
        finally:
            server.stop()

    def test_stop_returns_within_the_shutdown_poll(self):
        # Each stop waits at most one shutdown poll (0.5 s by default).
        for _ in range(5):
            server = MetricsServer(0, registry_provider=MetricsRegistry)
            server.start()
            with urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/healthz", timeout=10
            ) as resp:
                assert resp.status == 200
            started = time.perf_counter()
            server.stop()
            assert time.perf_counter() - started < 0.3


#: A run's progress log as it was written before progress events were
#: trace events: flat ``repro.live-events/1`` records, opened by a
#: ``bus_start`` stamped before the world was built.  Frozen here so
#: run directories recorded then keep replaying.
LEGACY_EVENTS = """\
{"type": "bus_start", "t": 1000.0, "seq": 0, "worker": null, "schema": "repro.live-events/1"}
{"type": "run_start", "t": 1010.0, "seq": 1, "worker": null, "hours": 4, "workers": 2, "engine": "fast", "shards": [[0, 2], [2, 4]]}
{"type": "shard_start", "t": 1010.0, "seq": 0, "worker": 0, "hour_start": 0, "hour_stop": 2}
{"type": "shard_start", "t": 1010.0, "seq": 0, "worker": 1, "hour_start": 2, "hour_stop": 4}
{"type": "hour_done", "t": 1011.0, "seq": 1, "worker": 0, "hour": 0, "stream": "fast-engine/hour/0", "transactions": 100, "dns": 3, "tcp": 2, "http": 1, "masked": 0}
{"type": "hour_done", "t": 1011.0, "seq": 1, "worker": 1, "hour": 2, "stream": "fast-engine/hour/2", "transactions": 100, "dns": 3, "tcp": 2, "http": 1, "masked": 0}
{"type": "hour_done", "t": 1012.0, "seq": 2, "worker": 0, "hour": 1, "stream": "fast-engine/hour/1", "transactions": 100, "dns": 3, "tcp": 2, "http": 1, "masked": 0}
{"type": "hour_done", "t": 1012.0, "seq": 2, "worker": 1, "hour": 3, "stream": "fast-engine/hour/3", "transactions": 100, "dns": 3, "tcp": 2, "http": 1, "masked": 0}
{"type": "shard_done", "t": 1012.0, "seq": 3, "worker": 0, "hour_start": 0, "hour_stop": 2, "transactions": 200, "elapsed_seconds": 2.0, "cpu_seconds": 1.5}
{"type": "shard_done", "t": 1012.0, "seq": 3, "worker": 1, "hour_start": 2, "hour_stop": 4, "transactions": 200, "elapsed_seconds": 2.0, "cpu_seconds": 1.25}
{"type": "run_done", "t": 1012.0, "seq": 2, "worker": null, "transactions": 400, "dns": 12, "tcp": 8, "http": 4, "masked": 0}
"""


class TestTimeline:
    def test_load_trace_reads_legacy_records_and_skips_torn_lines(
        self, tmp_path
    ):
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps({"type": "hour_done", "t": 2.0, "seq": 1, "worker": 0})
            + "\n"
            + json.dumps({"type": "run_start", "t": 1.0, "seq": 0}) + "\n"
            + '{"type": "hour_done", "t": 3.0, "se\n'  # torn tail
        )
        events = load_trace(str(path)).events
        assert events == [
            event_record("hour_done", 2.0, {"seq": 1, "worker": 0}),
            event_record("run_start", 1.0, {"seq": 0}),
        ]

    def test_render_timeline_full_run(self):
        text = render_timeline(_synthetic_run(workers=2, hours_per_worker=3))
        assert "6 hours simulated" in text
        assert "run: hours=6 workers=2 engine=fast" in text
        assert "w0" in text and "w1" in text
        assert "[3,6)" in text
        assert "cpu=2.50s" in text
        assert "totals: 6000 transactions" in text
        assert "run completed" in text

    def test_interrupted_run_is_called_out(self):
        events = [
            e for e in _synthetic_run() if e["name"] != "run_done"
        ]
        assert "interrupted run?" in render_timeline(events)

    def test_no_progress_events_renders_nothing(self):
        assert render_timeline([]) is None
        # A span trace's own events are not progress.
        seeds = [event_record("rng.fork", 5.0, {"name": "faults"}, span=1)]
        assert render_timeline(seeds) is None

    def test_trace_events_do_not_stretch_the_axis(self):
        # Seeds recorded long before the run started share the log; the
        # axis still runs from run_start to run_done.
        seeds = [event_record("rng.fork", 1.0, {"name": "faults"}, span=1)]
        run = _synthetic_run(workers=1, hours_per_worker=2)
        assert render_timeline(seeds + run) == render_timeline(run)
        assert "timeline: 6 events over 3.50s" in render_timeline(run)


class TestLiveSession:
    def test_lifecycle_spools_events(self):
        session = LiveSession(dashboard=False, serve_port=None).start()
        try:
            runtime.emitter().emit("hour_done", hour=1, transactions=5)
        finally:
            session.stop()
        with open(session.spool_path, encoding="utf-8") as fh:
            spooled = [json.loads(line) for line in fh]
        session.cleanup()
        # The aggregator and the spool saw the one event, and nothing
        # the bus made up.
        assert session.aggregator.events_seen == 1
        assert [e["name"] for e in spooled] == ["hour_done"]
        assert spooled[0]["fields"]["hour"] == 1

    def test_server_port_exposed(self):
        session = LiveSession(dashboard=False, serve_port=0)
        session.start()
        try:
            assert session.port
        finally:
            session.stop()
            session.cleanup()

    def test_detect_wires_horizon_surfaces(self):
        """Batch detection serves /slo + /history like the daemon does.

        The horizon engines ride the detector's ordered hour stream, so
        a plain ``--detect --serve-metrics`` batch run answers the same
        long-horizon questions an indefinite serve run does.
        """
        import json
        import urllib.request

        from repro.world.simulator import simulate_default_month

        with LiveSession(serve_port=0, detect=True) as session:
            result = simulate_default_month(hours=12, per_hour=2, seed=11)
            session.fold_dataset(result.dataset)
            assert session.detector.hours_folded == 12
            base = f"http://127.0.0.1:{session.port}"
            slo = json.load(urllib.request.urlopen(base + "/slo"))
            assert slo["hours_folded"] == 12
            assert set(slo["sides"]) == {"client", "server"}
            assert slo["regions"]  # regions rode run_start
            hist = json.load(urllib.request.urlopen(
                base + "/history?series=overall&res=hour"
            ))
            assert hist["point_count"] == 12
            status = json.load(urllib.request.urlopen(base + "/status"))
            assert status["slo"]["availability"]["client"] is not None
            assert set(status["slo"]["burn_rates"]) == {"1h", "6h", "3d"}
            metrics = urllib.request.urlopen(
                base + "/metrics"
            ).read().decode()
            assert 'repro_slo_availability{side="client"}' in metrics

    def test_no_detect_horizon_endpoints_404(self):
        import urllib.error
        import urllib.request

        with LiveSession(serve_port=0, detect=False) as session:
            for route in ("/slo", "/history?series=overall&res=hour"):
                try:
                    urllib.request.urlopen(
                        f"http://127.0.0.1:{session.port}{route}"
                    )
                except urllib.error.HTTPError as err:
                    assert err.code == 404
                else:
                    raise AssertionError(f"{route} should 404 without --detect")


HOURS = "8"
PER_HOUR = "2"


def _digest(capsys, *argv):
    code = cli.main([
        "--hours", HOURS, "--per-hour", PER_HOUR, "--seed", "11",
        "simulate", *argv,
    ])
    assert code == 0
    out = capsys.readouterr().out
    return next(
        line for line in out.splitlines() if line.startswith("dataset digest:")
    )


class TestDeterminism:
    """The acceptance criterion: telemetry never touches the dataset."""

    def test_digest_identical_with_and_without_live(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("TERM", "dumb")
        baseline_w1 = _digest(capsys, "--workers", "1")
        baseline_w4 = _digest(capsys, "--workers", "4")
        assert baseline_w1 == baseline_w4
        assert _digest(
            capsys, "--workers", "1", "--live", "--serve-metrics", "0"
        ) == baseline_w1
        assert _digest(
            capsys, "--workers", "4", "--live", "--serve-metrics", "0"
        ) == baseline_w4


class TestCliEndToEnd:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("live-registry")
        code = cli.main([
            "--runs-dir", str(root),
            "--hours", HOURS, "--per-hour", PER_HOUR, "--seed", "11",
            "simulate", "--workers", "2", "--live",
        ])
        assert code == 0
        from repro.obs.runstore.store import RunStore

        store = RunStore(root)
        return store, store.load("latest")

    def test_events_persisted_into_run_dir(self, recorded):
        store, manifest = recorded
        assert manifest.trace_file == "trace.jsonl"
        assert manifest.events_file is None
        events = load_trace(
            str(store.run_dir(manifest.run_id) / manifest.trace_file)
        ).events
        kinds = {e["name"] for e in events}
        assert {"run_start", "shard_start", "hour_done",
                "shard_done", "run_done"} <= kinds
        hour_events = [
            e["fields"] for e in events if e["name"] == "hour_done"
        ]
        assert len(hour_events) == int(HOURS)
        assert {e["worker"] for e in hour_events} == {0, 1}
        # RNG stream ids ride along for reproducibility.
        assert all(
            e["stream"].startswith("fast-engine/hour/") for e in hour_events
        )

    def test_dashboard_writes_stderr_not_stdout(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("TERM", "dumb")
        code = cli.main([
            "--runs-dir", str(tmp_path / "runs"),
            "--hours", HOURS, "--per-hour", PER_HOUR, "--seed", "11",
            "simulate", "--workers", "1", "--live",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "live: " in captured.err
        assert "live: " not in captured.out

    def test_serve_metrics_announces_port(self, tmp_path, capsys):
        code = cli.main([
            "--runs-dir", str(tmp_path / "runs"),
            "--hours", HOURS, "--per-hour", PER_HOUR, "--seed", "11",
            "simulate", "--workers", "1", "--serve-metrics", "0",
        ])
        assert code == 0
        assert "serving /metrics on http://127.0.0.1:" in capsys.readouterr().err

    def test_runs_show_points_at_events(self, recorded, capsys):
        store, manifest = recorded
        code = cli.main([
            "runs", "--runs-dir", str(store.root), "show", manifest.run_id,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "events:" not in out
        (trace_line,) = [
            line for line in out.splitlines() if line.startswith("trace:")
        ]
        assert "repro obs" in trace_line and "--timeline" in trace_line

    def test_runs_show_timeline_replays(self, recorded, capsys):
        store, manifest = recorded
        code = cli.main([
            "runs", "--runs-dir", str(store.root), "show", manifest.run_id,
            "--timeline",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline:" in out
        assert f"{HOURS} hours simulated" in out
        assert "run: hours=8 workers=2 engine=fast" in out
        assert "-- per-worker hour completions" in out
        assert "run completed (run_done recorded)" in out

    def test_runs_show_timeline_without_events(self, tmp_path, capsys):
        code = cli.main([
            "--runs-dir", str(tmp_path / "runs"),
            "--hours", HOURS, "--per-hour", PER_HOUR, "--seed", "11",
            "simulate", "--workers", "1",
        ])
        assert code == 0
        code = cli.main([
            "runs", "--runs-dir", str(tmp_path / "runs"), "show", "latest",
            "--timeline",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "no live-telemetry events recorded" in out

    def test_live_trace_run_leaves_one_log(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("TERM", "dumb")
        root, own_trace = tmp_path / "runs", tmp_path / "t.jsonl"
        code = cli.main([
            "--runs-dir", str(root),
            "--hours", HOURS, "--per-hour", PER_HOUR, "--seed", "11",
            "simulate", "--workers", "1", "--live", "--trace", str(own_trace),
        ])
        assert code == 0
        from repro.obs.runstore.store import RunStore

        store = RunStore(root)
        manifest = store.load("latest")
        run_dir = store.run_dir(manifest.run_id)
        assert sorted(p.name for p in run_dir.glob("*.jsonl")) == [
            "trace.jsonl"
        ]
        assert manifest.trace_file == "trace.jsonl"
        assert manifest.events_file is None
        log = load_trace(str(run_dir / "trace.jsonl"))
        assert log.span_count > 0
        hours = [e for e in log.events if e["name"] == "hour_done"]
        assert len(hours) == int(HOURS)
        # The user's own --trace file holds the spans alone.
        assert not [
            e for e in load_trace(str(own_trace)).events
            if e["name"] == "hour_done"
        ]
        capsys.readouterr()
        assert cli.main(["obs", str(run_dir / "trace.jsonl")]) == 0
        out = capsys.readouterr().out
        assert f"{'hour_done':<38} {int(HOURS):>8}" in out.splitlines()

    def test_legacy_events_file_still_replays(self, tmp_path, capsys):
        # A run directory recorded before progress events joined
        # trace.jsonl: its manifest names a flat events.jsonl.
        root = tmp_path / "runs"
        assert cli.main([
            "--runs-dir", str(root),
            "--hours", HOURS, "--per-hour", PER_HOUR, "--seed", "11",
            "simulate", "--workers", "1",
        ]) == 0
        from repro.obs.runstore.store import MANIFEST_FILE, RunStore

        store = RunStore(root)
        run_dir = store.run_dir(store.load("latest").run_id)
        (run_dir / "events.jsonl").write_text(LEGACY_EVENTS)
        document = json.loads((run_dir / MANIFEST_FILE).read_text())
        document["events_file"] = "events.jsonl"
        (run_dir / MANIFEST_FILE).write_text(json.dumps(document))
        capsys.readouterr()
        assert cli.main([
            "runs", "--runs-dir", str(root), "show", "latest", "--timeline",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        # bus_start is no progress event: the axis runs from run_start
        # (t=1010) to run_done (t=1012), so the two hours of each lane
        # land mid-axis and in the last column.
        row = " " * 30 + "█" + " " * 28 + "█"
        start = lines.index(
            "timeline: 10 events over 2.00s (4 hours simulated)"
        )
        assert lines[start:] == [
            "timeline: 10 events over 2.00s (4 hours simulated)",
            "run: hours=4 workers=2 engine=fast",
            "",
            "-- per-worker hour completions (each column ~0.033s) --",
            f"  w0   |{row}| [0,2) 2h cpu=1.50s",
            f"  w1   |{row}| [2,4) 2h cpu=1.25s",
            "",
            "totals: 400 transactions  dns=12  tcp=8  http=4  masked=0",
            "run completed (run_done recorded)",
        ]

    def test_replayed_timeline_equals_the_live_fold(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("TERM", "dumb")
        sessions = []
        cleanup = LiveSession.cleanup

        def keep(session):
            sessions.append(session)
            cleanup(session)

        monkeypatch.setattr(LiveSession, "cleanup", keep)
        root = tmp_path / "runs"
        assert cli.main([
            "--runs-dir", str(root),
            "--hours", HOURS, "--per-hour", PER_HOUR, "--seed", "11",
            "simulate", "--workers", "2", "--live",
        ]) == 0
        live = sessions[0].aggregator.snapshot()
        from repro.obs.runstore.store import RunStore

        store = RunStore(root)
        manifest = store.load("latest")
        _, replayed = replay(load_trace(
            str(store.run_dir(manifest.run_id) / manifest.trace_file)
        ).events)
        assert len(replayed["lanes"]) == 2
        for key in (
            "lanes", "hours_total", "hours_done", "workers", "engine",
            "transactions", "failures", "finished", "rate_window",
            "events_seen",
        ):
            assert replayed[key] == live[key], key
