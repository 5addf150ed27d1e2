"""repro.obs.online: shared knee, alert rules, streaming detector.

The acceptance tests live at the bottom: at the end of a recorded run
the online episode set is cell-for-cell identical to the batch
``core/episodes.py`` analysis at workers 1 and 4, the persisted
``alerts.jsonl`` is bit-identical across worker counts, a planted
server fault is alerted on within the 3-sim-hour latency SLO, and
``repro detect`` scores it all PASS through the CLI.
"""

from __future__ import annotations

import hashlib
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import cli
from repro.core import knee as knee_mod
from repro.core.blame import run_blame_analysis
from repro.core.dataset import MeasurementDataset
from repro.core.episodes import (
    RateMatrix, client_rate_matrix, detect_knee, episode_matrix,
    server_rate_matrix,
)
from repro.obs.online.detector import BLAME_THRESHOLD, OnlineDetector
from repro.obs.online.rules import (
    DEFAULT_RULES, AlertRule, RuleError, load_rules, rules_from_dicts,
)
from repro.obs.runstore.store import serialize_alerts
from repro.world.simulator import simulate_default_month


# --------------------------------------------------------------------------
# The shared knee construction
# --------------------------------------------------------------------------


class TestSharedKnee:
    def test_none_sentinel_while_degenerate(self):
        assert knee_mod.knee_of_cdf([]) is None
        assert knee_mod.knee_of_cdf([0.5, 0.9]) is None  # outside window
        assert knee_mod.knee_of_cdf([0.02, 0.03]) is None  # 2 points

    def test_knee_lands_at_the_bend(self):
        rates = [0.02] * 50 + [0.05, 0.10, 0.15, 0.20, 0.25]
        knee = knee_mod.knee_of_cdf(rates)
        assert knee is not None
        assert 0.01 <= knee <= 0.10

    def test_matches_batch_detect_knee_exactly(self):
        # The promoted module and the batch pipeline must land on the
        # same float for the same samples -- the bit-exactness that
        # makes online == batch hold at the end of a run.
        rng = np.random.default_rng(7)
        rates = np.clip(rng.exponential(0.03, size=(40, 24)), 0.0, 1.0)
        trans = np.full(rates.shape, 100, dtype=np.int64)
        matrix = RateMatrix(rates=rates, transactions=trans)
        batch = detect_knee(matrix)
        shared = knee_mod.knee_of_cdf(matrix.flatten_valid().tolist())
        assert shared == batch

    def test_batch_falls_back_where_online_reports_none(self):
        # Same degenerate input: the batch pipeline needs a usable
        # threshold (the paper's f = 5%), the live/online surfaces
        # prefer the honest None sentinel.
        rates = np.full((3, 4), 0.5)  # every sample outside the window
        matrix = RateMatrix(
            rates=rates, transactions=np.full(rates.shape, 100)
        )
        assert detect_knee(matrix) == knee_mod.FALLBACK_THRESHOLD
        assert knee_mod.knee_of_cdf(rates.ravel().tolist()) is None


# --------------------------------------------------------------------------
# Alert rules
# --------------------------------------------------------------------------


class TestRules:
    def test_roundtrip_and_unknown_keys(self):
        rule = AlertRule(
            name="srv", kind="episode-opened", side="server",
            min_peak_rate=0.1, severity="page",
        )
        assert AlertRule.from_dict(rule.to_dict()) == rule
        with pytest.raises(RuleError, match="unknown keys"):
            AlertRule.from_dict({"name": "x", "kind": "episode-opened",
                                 "frobnicate": 1})

    def test_validation(self):
        with pytest.raises(RuleError, match="unknown kind"):
            AlertRule(name="x", kind="nope")
        with pytest.raises(RuleError, match="needs a side"):
            AlertRule(name="x", kind="blame-verdict")
        with pytest.raises(RuleError, match="side must be"):
            AlertRule(name="x", kind="episode-opened", side="middle")
        with pytest.raises(RuleError, match="duplicate"):
            rules_from_dicts([
                {"name": "a", "kind": "episode-opened"},
                {"name": "a", "kind": "failure-rate-burn"},
            ])
        with pytest.raises(RuleError, match="no rules"):
            rules_from_dicts([])

    def test_load_json_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "burn", "kind": "failure-rate-burn",
             "rate": 0.08, "hours": 2},
        ]}))
        rules = load_rules(str(path))
        assert [r.name for r in rules] == ["burn"]
        assert rules[0].rate == 0.08
        # A bare list is the same document.
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps([
            {"name": "open", "kind": "episode-opened"},
        ]))
        assert [r.name for r in load_rules(str(bare))] == ["open"]

    def test_load_toml_file(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "rules.toml"
        path.write_text(
            '[[rules]]\nname = "srv"\nkind = "episode-opened"\n'
            'side = "server"\nseverity = "page"\n'
        )
        rules = load_rules(str(path))
        assert rules[0].side == "server"
        assert rules[0].severity == "page"

    def test_load_errors_name_the_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(RuleError, match="bad.json"):
            load_rules(str(bad))
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        with pytest.raises(RuleError, match="no 'rules' list"):
            load_rules(str(empty))


# --------------------------------------------------------------------------
# The streaming detector on synthetic blocks
# --------------------------------------------------------------------------


def _run_start(hours, clients=("c0", "c1"), servers=("s0", "s1")):
    return {
        "type": "run_start", "t": 1.0, "seq": 0, "worker": None,
        "hours": hours, "workers": 1, "engine": "fast",
        "clients": list(clients), "servers": list(servers),
    }


def stats_block(failures, clients=2, servers=2, per_cell=50):
    """A ``(client, site, hour)`` block for ``OnlineDetector.fold_block``.

    Every cell sees ``per_cell`` transactions an hour; ``failures[t]``
    maps ``(client, server)`` cells to hour ``t``'s TCP failures.
    """
    shape = (clients, servers, len(failures))
    arrays = {
        name: np.zeros(shape, dtype=np.int64)
        for name in MeasurementDataset._TRANSACTION_FIELDS
    }
    arrays["transactions"][...] = per_cell
    for t, cells in enumerate(failures):
        for (c, s), count in cells.items():
            arrays["tcp_noconn"][c, s, t] = count
    return arrays


#: Client 0 failing 20% of its transactions, spread over both servers.
#: With five clients each server sees only 4% of failures, under f = 5%,
#: so only the client side is episodic.
C0_FAILING = {(0, 0): 10, (0, 1): 10}
CLIENTS = 5


class TestDetector:
    def test_episode_opens_with_roster_name_and_latency_detail(self):
        detector = OnlineDetector(rules=[
            AlertRule(name="open", kind="episode-opened", severity="page"),
        ])
        detector.update(_run_start(4))
        detector.fold_block(
            stats_block([{}, C0_FAILING], clients=CLIENTS), 0
        )
        assert len(detector.alerts) == 1
        alert = detector.alerts[0]
        assert alert["hour"] == 1
        assert alert["side"] == "client"
        assert alert["entity"] == "c0"
        assert alert["severity"] == "page"
        assert alert["detail"]["latency_hours"] == 0
        # No wall-clock field may leak into the stream.
        assert "t" not in alert

    def test_hysteresis_closes_after_two_calm_hours(self):
        detector = OnlineDetector(rules=[])
        detector.update(_run_start(6))
        # Opens at hour 0; hour 1 is one calm hour: still open.
        detector.fold_block(
            stats_block([C0_FAILING, {}], clients=CLIENTS), 0
        )
        snap = detector.snapshot()
        assert [e["entity"] for e in snap["open_episodes"]] == ["c0"]
        # The second calm hour closes it.
        detector.fold_block(stats_block([{}], clients=CLIENTS), 2)
        assert detector.snapshot()["open_episodes"] == []
        # A dip-and-return is one episode, not two ...
        detector2 = OnlineDetector(rules=[])
        detector2.update(_run_start(6))
        detector2.fold_block(
            stats_block([C0_FAILING, {}, C0_FAILING], clients=CLIENTS), 0
        )
        assert detector2.snapshot()["episodes_opened"]["client"] == 1

    def test_burn_rule_latches_after_consecutive_hours(self):
        burn = AlertRule(
            name="burn", kind="failure-rate-burn", rate=0.05, hours=3,
        )
        detector = OnlineDetector(rules=[burn])
        detector.update(_run_start(8))
        six_percent = {(c, s): 3 for c in range(2) for s in range(2)}
        detector.fold_block(stats_block([six_percent] * 6), 0)
        fired = [a for a in detector.alerts if a["rule"] == "burn"]
        assert len(fired) == 1  # latching: once, not every hour after
        assert fired[0]["hour"] == 2  # the third consecutive hour
        assert fired[0]["detail"]["streak_hours"] == 3

    def test_fold_block_refuses_a_gap_or_a_repeat(self):
        detector = OnlineDetector()
        detector.update(_run_start(8))
        detector.fold_block(stats_block([{}, {}]), 0)
        for hour_start in (3, 1, 0):
            with pytest.raises(ValueError, match="next unfolded hour is 2"):
                detector.fold_block(stats_block([{}]), hour_start)
        assert detector.hours_folded == 2
        detector.fold_block(stats_block([{}]), 2)
        assert detector.last_folded_hour == 2

    def test_blame_verdict_latches_on_majority(self):
        verdict = AlertRule(
            name="srv-majority", kind="blame-verdict", side="server",
            min_fraction=0.5, min_total=100,
        )
        detector = OnlineDetector(rules=[verdict])
        detector.update(_run_start(4))
        # s0 is episodic (20% >= f = 5%); each client fails only 4% of
        # its transactions over five servers, so the TCP failures
        # bucket server-side.
        s0_failing = {(0, 0): 60, (1, 0): 60}
        detector.fold_block(
            stats_block([s0_failing], servers=5, per_cell=300), 0
        )
        assert detector.blame == {
            "server": 120, "client": 0, "both": 0, "other": 0,
        }
        fired = [a for a in detector.alerts if a["rule"] == "srv-majority"]
        assert len(fired) == 1
        assert fired[0]["detail"]["fraction"] == 1.0
        # Latched: more server-side failures do not re-fire it.
        detector.fold_block(
            stats_block([{(0, 0): 60}], servers=5, per_cell=300), 1
        )
        assert len(
            [a for a in detector.alerts if a["rule"] == "srv-majority"]
        ) == 1

    def test_min_total_gates_the_verdict(self):
        verdict = AlertRule(
            name="srv-majority", kind="blame-verdict", side="server",
            min_fraction=0.5, min_total=100,
        )
        detector = OnlineDetector(rules=[verdict])
        detector.update(_run_start(4))
        detector.fold_block(
            stats_block([{(0, 0): 99}], servers=5, per_cell=300), 0
        )
        assert sum(detector.blame.values()) == 99
        assert detector.alerts == []  # 99 < min_total

    def test_registry_gauges(self):
        detector = OnlineDetector()
        detector.update(_run_start(4))
        detector.fold_block(stats_block([C0_FAILING], clients=CLIENTS), 0)
        snapshot = detector.to_registry().snapshot()
        assert snapshot["alert_count"] >= 1.0
        assert snapshot['alert_open_episodes{side="client"}'] == 1.0
        assert snapshot['alert_open_episodes{side="server"}'] == 0.0
        assert snapshot["detection_latency_hours"] == 0.0
        # Degenerate knee => threshold gauges absent, not zero.
        assert not any(
            key.startswith("alert_episode_threshold") for key in snapshot
        )


# --------------------------------------------------------------------------
# /alerts endpoint
# --------------------------------------------------------------------------


class TestAlertsEndpoint:
    def test_serves_detector_snapshot(self):
        from repro.obs.live.aggregate import LiveAggregator
        from repro.obs.live.server import MetricsServer

        detector = OnlineDetector()
        detector.update(_run_start(4))
        detector.fold_block(stats_block([C0_FAILING], clients=CLIENTS), 0)
        server = MetricsServer(
            0, aggregator=LiveAggregator(), detector=detector
        )
        server.start()
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/alerts", timeout=10
            ) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith(
                    "application/json"
                )
                doc = json.loads(resp.read())
            assert doc["schema"] == "repro.alerts/1"
            assert doc["alert_count"] == len(detector.alerts)
            assert doc["open_episodes"][0]["entity"] == "c0"
            with urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/metrics", timeout=10
            ) as resp:
                body = resp.read().decode()
            assert "repro_alert_count" in body
        finally:
            server.stop()

    def test_404_without_detector(self):
        from repro.obs.live.aggregate import LiveAggregator
        from repro.obs.live.server import MetricsServer

        server = MetricsServer(0, aggregator=LiveAggregator())
        server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/alerts", timeout=10
                )
            assert excinfo.value.code == 404
        finally:
            server.stop()


# --------------------------------------------------------------------------
# End-to-end: online == batch on the seed world, at 1 and 4 workers
# --------------------------------------------------------------------------

HOURS = 8
PER_HOUR = 2
SEED = 11


def _load_events(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines() if line.strip()
    ]


def _folded(dataset):
    """A fresh detector fed ``dataset`` the way a --detect run feeds it."""
    detector = OnlineDetector()
    world = dataset.world
    detector.update(
        {"type": "run_start", "hours": world.hours, **world.roster()}
    )
    detector.fold_block(dataset.arrays(), 0)
    return detector


class TestOnlineEqualsBatch:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        """The seed world recorded with --detect at workers 1 and 4."""
        root = tmp_path_factory.mktemp("online-registry")
        from repro.obs.runstore.store import RunStore

        store = RunStore(root)
        manifests = {}
        for workers in (1, 4):
            code = cli.main([
                "--runs-dir", str(root),
                "--hours", str(HOURS), "--per-hour", str(PER_HOUR),
                "--seed", str(SEED),
                "simulate", "--workers", str(workers), "--detect",
            ])
            assert code == 0
            manifests[workers] = store.load("latest")
        return store, manifests

    def test_alert_stream_bit_identical_across_worker_counts(self, recorded):
        store, manifests = recorded
        bodies = {
            w: (store.run_dir(m.run_id) / m.alerts_file).read_bytes()
            for w, m in sorted(manifests.items())
        }
        assert bodies[1] == bodies[4]
        for w, m in sorted(manifests.items()):
            assert m.alerts_summary["digest"] == hashlib.sha256(
                bodies[w]
            ).hexdigest()

    @pytest.fixture(scope="class")
    def datasets(self):
        """The seed world's dataset simulated at workers 1 and 4."""
        return {
            workers: simulate_default_month(
                hours=HOURS, per_hour=PER_HOUR, seed=SEED, workers=workers,
            ).dataset
            for workers in (1, 4)
        }

    def test_final_flags_match_core_episodes_batch(self, datasets):
        batch = datasets[1]
        for dataset in datasets.values():
            detector = _folded(dataset)
            for side, matrix in (
                ("client", client_rate_matrix(batch)),
                ("server", server_rate_matrix(batch)),
            ):
                knee = detect_knee(matrix)
                assert detector.final_threshold(side) == knee
                flags = episode_matrix(matrix, knee)
                batch_cells = {
                    (int(i), int(h)) for i, h in zip(*np.nonzero(flags))
                }
                assert detector.final_flags(side) == batch_cells

    def test_running_blame_matches_batch_at_fixed_f(self, datasets):
        # Online blame runs with no pair exclusion: an online observer
        # cannot know which pairs will prove permanent.
        batch = run_blame_analysis(
            datasets[1], BLAME_THRESHOLD, excluded_pairs=None
        ).breakdown
        for dataset in datasets.values():
            assert _folded(dataset).blame == {
                "server": batch.server_side, "client": batch.client_side,
                "both": batch.both, "other": batch.other,
            }

    def test_detect_cli_scores_pass(self, recorded, capsys):
        store, manifests = recorded
        for manifest in manifests.values():
            code = cli.main([
                "detect", manifest.run_id, "--runs-dir", str(store.root),
                "--no-append",
            ])
            out = capsys.readouterr().out
            assert code == 0, out
            assert "precision=1.000 recall=1.000" in out
            assert "alert digest: reproduced" in out
            assert "PASS" in out

    def test_detect_feeds_runs_check_alert_gate(
        self, recorded, tmp_path, capsys
    ):
        store, manifests = recorded
        baseline = tmp_path / "traj.json"
        code = cli.main([
            "detect", manifests[1].run_id, "--runs-dir", str(store.root),
            "--baseline", str(baseline),
        ])
        capsys.readouterr()
        assert code == 0
        # The w4 run checks clean against the w1-derived baseline:
        # the alert stream is worker-count-invariant.
        code = cli.main([
            "runs", "--runs-dir", str(store.root), "check",
            manifests[4].run_id, "--baseline", str(baseline),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "alerts: OK" in out
        # Tampering with the recorded digest turns the gate red.
        entries = json.loads(baseline.read_text())
        entries["entries"][0]["alerts"]["digest"] = "0" * 64
        baseline.write_text(json.dumps(entries))
        code = cli.main([
            "runs", "--runs-dir", str(store.root), "check",
            manifests[4].run_id, "--baseline", str(baseline),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "alerts: DRIFT" in out

    def test_runs_show_alerts_replays_the_stream(self, recorded, capsys):
        store, manifests = recorded
        code = cli.main([
            "runs", "--runs-dir", str(store.root), "show",
            manifests[1].run_id, "--alerts",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- alert stream --" in out
        assert "repro.alerts/1" in out
        assert "summary:" in out

    def test_detect_without_events_is_a_usage_error(self, tmp_path, capsys):
        # A run recorded without detection has no alerts.jsonl to score.
        code = cli.main([
            "--runs-dir", str(tmp_path / "runs"),
            "--hours", str(HOURS), "--per-hour", str(PER_HOUR),
            "--seed", str(SEED),
            "simulate", "--workers", "1",
        ])
        assert code == 0
        capsys.readouterr()
        code = cli.main([
            "detect", "latest", "--runs-dir", str(tmp_path / "runs"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "no alerts.jsonl" in err
        assert "--detect" in err

    def test_detect_names_both_digests_when_the_rebuild_drifts(
        self, tmp_path, capsys
    ):
        runs = tmp_path / "runs"
        code = cli.main([
            "--runs-dir", str(runs),
            "--hours", str(HOURS), "--per-hour", str(PER_HOUR),
            "--seed", str(SEED),
            "simulate", "--workers", "1", "--detect",
        ])
        assert code == 0
        capsys.readouterr()
        from repro.obs.runstore.store import RunStore

        manifest = RunStore(runs).load("latest")
        rebuilt = manifest.dataset["digest"]
        path = RunStore(runs).run_dir(manifest.run_id) / "manifest.json"
        document = json.loads(path.read_text())
        document["dataset"]["digest"] = "0" * 64
        path.write_text(json.dumps(document))
        code = cli.main([
            "detect", manifest.run_id, "--runs-dir", str(runs),
            "--no-append",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert rebuilt in err
        assert "0" * 64 in err


class TestRuleFileErrors:
    @pytest.mark.parametrize("name, body", [
        ("bad.toml", "[[rules]\nname = "),
        ("bad.json", "{not json"),
    ])
    def test_bad_rule_file_is_a_usage_error_and_leaves_no_spool(
        self, name, body, tmp_path, monkeypatch, capsys
    ):
        import tempfile

        rules = tmp_path / name
        rules.write_text(body)
        spool = tmp_path / "tmp"
        spool.mkdir()
        monkeypatch.setenv("TMPDIR", str(spool))
        monkeypatch.setattr(tempfile, "tempdir", None)
        with pytest.raises(SystemExit) as excinfo:
            cli.main([
                "--runs-dir", str(tmp_path / "runs"), "--hours", "4",
                "simulate", "--alert-rules", str(rules),
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and name in err
        assert list(spool.iterdir()) == []


class TestPlantedFault:
    def test_planted_server_fault_alerts_within_slo(
        self, tmp_path, capsys
    ):
        """A site outage planted at hour 6 pages within 3 sim-hours."""
        fault_start = 6
        code = cli.main([
            "--runs-dir", str(tmp_path / "runs"),
            "--hours", "16", "--per-hour", str(PER_HOUR),
            "--seed", str(SEED),
            "simulate", "--workers", "2", "--detect",
            "--fault", "server:berkeley.edu:6-12:0.8",
        ])
        capsys.readouterr()
        assert code == 0
        from repro.obs.runstore.store import RunStore

        store = RunStore(tmp_path / "runs")
        manifest = store.load("latest")
        assert manifest.config["fault"] == "server:berkeley.edu:6-12:0.8"
        lines = _load_events(
            store.run_dir(manifest.run_id) / manifest.alerts_file
        )
        paged = [
            line for line in lines
            if line.get("type") == "alert"
            and line.get("kind") == "episode-opened"
            and line.get("entity") == "berkeley.edu"
        ]
        assert paged, "planted fault never alerted"
        assert paged[0]["hour"] - fault_start <= 3
        # The latency the alert self-reports obeys the SLO too.
        assert paged[0]["detail"]["latency_hours"] <= 3

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_alert_stream_bytes_are_pinned(self, workers, tmp_path, capsys):
        """The batch alert stream of the CI plan, pinned byte for byte."""
        runs = tmp_path / "runs"
        code = cli.main([
            "--runs-dir", str(runs), "--hours", "48", "--per-hour", "2",
            "--seed", "20050101",
            "simulate", "--workers", str(workers), "--detect",
            "--fault", "server:berkeley.edu:12-36:0.8",
        ])
        capsys.readouterr()
        assert code == 0
        from repro.obs.runstore.store import RunStore

        store = RunStore(runs)
        manifest = store.load("latest")
        body = (store.run_dir(manifest.run_id) / manifest.alerts_file)
        assert hashlib.sha256(body.read_bytes()).hexdigest() == (
            "8d2967f0e3ecddb73819434f7cd346bc1cc8f70106cb5f64d970df755cbca8d0"
        )

    def test_fault_spec_errors_are_usage_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="expected"):
            cli.main([
                "--runs-dir", str(tmp_path / "runs"), "--hours", "4",
                "simulate", "--fault", "server:oops",
            ])
        with pytest.raises(SystemExit, match="unknown site"):
            cli.main([
                "--runs-dir", str(tmp_path / "runs"), "--hours", "4",
                "simulate", "--fault", "server:nosuch.example:1-2:0.5",
            ])
