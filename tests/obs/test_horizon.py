"""Long-horizon observability: history rollups, SLO ledger, the hour fold.

The property tests pin the two invariants the ``HistoryStore`` module
docstring promises *exactly*: every downsampled cell equals a
recomputation from the raw hour stream (sums add, counts add, maxes
max), and ring-buffer eviction never changes a surviving cell's digest.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import (
    MIN_SAMPLES_PER_HOUR,
    MeasurementDataset,
    fold_block,
)
from repro.obs.horizon.history import RESOLUTIONS, HistoryStore, cell_digest
from repro.obs.horizon.slo import DOWN_THRESHOLD, SLOEngine, render_slo_table
from repro.obs.online.detector import OnlineDetector
from repro.obs.online.rules import SLO_BURN_RULES
from repro.obs.runstore.chunks import dumps_record, loads_record
from repro.world.simulator import simulate_default_month
from tests.obs.test_online import stats_block

#: A tiny resolution set so hypothesis streams cross cell and eviction
#: boundaries in a few dozen hours instead of weeks.
SMALL_RESOLUTIONS = (("hour", 1, 6), ("3h", 3, 4), ("6h", 6, 3))


def _start(store: HistoryStore, n_clients: int, n_servers: int) -> None:
    store.on_run_start({
        "clients": [f"c{i}" for i in range(n_clients)],
        "servers": [f"s{i}" for i in range(n_servers)],
        "client_regions": ["us", "europe"] * (n_clients // 2)
        + ["asia"] * (n_clients % 2),
    })


class MemoryLog:
    """The checkpoint log's contract, in memory: a snapshot's ``log``
    batches are kept by ordinal, records below a batch's floor dropped,
    and :meth:`read` returns what ``ChunkStore.read_log`` would.  Records
    and snapshots pass through the store's record codec, array leaves
    included."""

    def __init__(self) -> None:
        self.covered = {}
        self.records = {}

    def write(self, state):
        """Keep a snapshot's batches; returns the snapshot as stored."""
        for stream, batch in state.pop("log").items():
            kept = self.records.setdefault(stream, {})
            for n, record in enumerate(batch["records"], batch["start"]):
                kept[n] = loads_record(dumps_record(record))
            for n in [n for n in kept if n < batch.get("floor", 0)]:
                del kept[n]
            self.covered[stream] = batch["start"] + len(batch["records"])
        return loads_record(dumps_record(state))

    def read(self):
        return {
            stream: (
                min(kept, default=self.covered[stream]),
                [kept[n] for n in sorted(kept)],
            )
            for stream, kept in self.records.items()
        }


hour_stats = st.tuples(
    st.lists(st.integers(0, 40), min_size=2, max_size=2),
    st.lists(st.integers(0, 12), min_size=2, max_size=2),
    st.lists(st.integers(0, 40), min_size=3, max_size=3),
    st.lists(st.integers(0, 12), min_size=3, max_size=3),
)


class TestHistoryRollupProperties:
    @given(st.lists(hour_stats, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_downsampled_cells_equal_raw_recomputation(self, stream):
        """6h/day/week analog cells == exact recomputation from raw hours."""
        store = HistoryStore(resolutions=SMALL_RESOLUTIONS)
        _start(store, 2, 3)
        raw = []
        for hour, (ct, cf, st_, sf) in enumerate(stream):
            cf = [min(f, t) for f, t in zip(cf, ct)]
            sf = [min(f, t) for f, t in zip(sf, st_)]
            store.on_hour(hour, ct, cf, st_, sf)
            raw.append((hour, ct, cf, st_, sf))
        for name, span, capacity in SMALL_RESOLUTIONS:
            doc = store.document({"series": "overall", "res": name})
            for point in doc["points"]:
                hours = [
                    r for r in raw
                    if point["hour_start"] <= r[0] < point["hour_stop"]
                ]
                t = sum(sum(r[1]) for r in hours)
                f = sum(sum(r[2]) for r in hours)
                rates = [
                    sum(r[2]) / sum(r[1]) for r in hours if sum(r[1]) > 0
                ]
                assert point["hours"] == len(hours)
                assert point["transactions"] == t
                assert point["failures"] == f
                assert point["max_rate"] == (max(rates) if rates else 0.0)
            # Per-entity sums/valid-counts/maxes, via the client series.
            cdoc = store.document(
                {"series": "client", "res": name, "entity": "c0"}
            )
            for point in cdoc["points"]:
                hours = [
                    r for r in raw
                    if point["hour_start"] <= r[0] < point["hour_stop"]
                ]
                assert point["transactions"] == sum(r[1][0] for r in hours)
                assert point["failures"] == sum(r[2][0] for r in hours)
                valid = [
                    r for r in hours if r[1][0] >= MIN_SAMPLES_PER_HOUR
                ]
                assert point["valid_hours"] == len(valid)
                assert point["max_rate"] == (
                    max((r[2][0] / r[1][0] for r in valid), default=0.0)
                )

    @given(st.lists(hour_stats, min_size=10, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_eviction_never_perturbs_surviving_cell_digests(self, stream):
        store = HistoryStore(resolutions=SMALL_RESOLUTIONS)
        _start(store, 2, 3)
        seen: dict = {}
        for hour, (ct, cf, st_, sf) in enumerate(stream):
            cf = [min(f, t) for f, t in zip(cf, ct)]
            sf = [min(f, t) for f, t in zip(sf, st_)]
            store.on_hour(hour, ct, cf, st_, sf)
            for name, span, capacity in SMALL_RESOLUTIONS:
                ring = store._rings[name]
                assert len(ring) <= capacity
                digests = store.cell_digests(name)
                for cell, digest in zip(ring, digests):
                    if cell["hours"] == span:  # complete => immutable
                        key = (name, cell["index"])
                        assert seen.setdefault(key, digest) == digest

    def test_out_of_order_fold_is_refused(self):
        store = HistoryStore(resolutions=SMALL_RESOLUTIONS)
        _start(store, 2, 3)
        store.on_hour(3, [1, 1], [0, 0], [1, 1, 1], [0, 0, 0])
        with pytest.raises(ValueError, match="out of order"):
            store.on_hour(3, [1, 1], [0, 0], [1, 1, 1], [0, 0, 0])

    def test_bad_query_params_raise_keyerror(self):
        store = HistoryStore()
        _start(store, 2, 3)
        with pytest.raises(KeyError, match="resolution"):
            store.document({"res": "fortnight"})
        with pytest.raises(KeyError, match="series"):
            store.document({"series": "nope"})
        with pytest.raises(KeyError, match="integers"):
            store.document({"from": "abc"})
        with pytest.raises(KeyError, match="entity"):
            store.document({"series": "client", "entity": "nobody"})

    def test_state_round_trip_then_fold_is_continuous(self):
        a = HistoryStore(resolutions=SMALL_RESOLUTIONS)
        b = HistoryStore(resolutions=SMALL_RESOLUTIONS)
        _start(a, 2, 3)
        stream = [
            ([20, 5], [2, 0], [10, 10, 5], [1, 1, 0]) for _ in range(17)
        ]
        for hour, (ct, cf, st_, sf) in enumerate(stream[:9]):
            a.on_hour(hour, ct, cf, st_, sf)
        b.restore_state(json.loads(json.dumps(a.export_state())))
        for hour, (ct, cf, st_, sf) in enumerate(stream[9:], start=9):
            a.on_hour(hour, ct, cf, st_, sf)
            b.on_hour(hour, ct, cf, st_, sf)
        assert a.export_state() == b.export_state()
        c = HistoryStore()  # default resolutions differ from SMALL
        with pytest.raises(ValueError, match="resolutions"):
            c.restore_state(a.export_state())

    @settings(max_examples=40, deadline=None)
    @given(
        stream=st.lists(hour_stats, min_size=1, max_size=40),
        cuts=st.sets(st.integers(1, 40), max_size=4),
    )
    def test_logged_snapshots_restore_the_same_state(self, stream, cuts):
        """Snapshots that log completed cells, taken at any hours,
        restore the full state from the last one and the log."""
        a = HistoryStore(resolutions=SMALL_RESOLUTIONS)
        _start(a, 2, 3)
        log = MemoryLog()
        for hour, (ct, cf, st_, sf) in enumerate(stream):
            a.on_hour(hour, ct, cf, st_, sf)
            if hour + 1 in cuts or hour + 1 == len(stream):
                state = log.write(a.export_state(log.covered))
        assert all(len(ring) <= 1 for ring in state["rings"].values())
        b = HistoryStore(resolutions=SMALL_RESOLUTIONS)
        b.restore_state(state, log.read())
        assert b.export_state() == a.export_state()
        missing = {s: (n + 1, r[1:]) for s, (n, r) in log.read().items()}
        if any(state["ring_lengths"][name] > 1 for name, _, _ in
               SMALL_RESOLUTIONS):
            with pytest.raises(ValueError, match="checkpoint log"):
                HistoryStore(resolutions=SMALL_RESOLUTIONS).restore_state(
                    state, missing
                )


class TestSLOEngine:
    def _engine(self):
        engine = SLOEngine()
        engine.on_run_start({
            "clients": ["c0", "c1"],
            "servers": ["s0", "s1"],
            "client_regions": ["us", "asia"],
        })
        return engine

    def test_availability_budget_and_episodes(self):
        engine = self._engine()
        # c0: 3 valid up hours then 2 down hours (rate 50% >= f) then up.
        for hour in range(6):
            down = hour in (3, 4)
            c0 = (40, 20 if down else 0)
            engine.on_hour(
                hour, [c0[0], 40], [c0[1], 0], [40, 40], [0, 0]
            )
        doc = engine.document()
        client = doc["sides"]["client"]
        assert client["valid_entity_hours"] == 12
        assert client["down_entity_hours"] == 2
        assert client["availability"] == 10 / 12
        assert client["down_episodes"] == 1
        assert client["mtbf_hours"] == 10.0  # up-hours / episodes
        assert client["mttr_hours"] == 2.0
        assert doc["sides"]["server"]["availability"] == 1.0
        # budget consumption: (1 - availability) / (1 - objective)
        assert client["error_budget_consumed"] == pytest.approx(
            (2 / 12) / (1 - doc["objective"])
        )
        regions = doc["regions"]
        assert set(regions) == {"us", "asia"}
        assert regions["us"]["availability"] == 4 / 6  # c0 alone
        assert regions["asia"]["availability"] == 1.0  # c1 alone
        worst = doc["worst_entities"]
        assert worst and worst[0]["entity"] == "c0"

    def test_invalid_hours_keep_last_state(self):
        engine = self._engine()
        # Hour 0 down, hour 1 invalid (too few samples): still down.
        engine.on_hour(0, [40, 40], [20, 0], [40, 40], [0, 0])
        engine.on_hour(1, [2, 2], [2, 0], [2, 2], [0, 0])
        doc = engine.document()
        client = doc["sides"]["client"]
        assert client["valid_entity_hours"] == 2  # only hour 0
        assert client["down_episodes"] == 1

    def test_burn_rates_windowed(self):
        engine = self._engine()
        for hour in range(8):
            f = 8 if hour >= 6 else 0  # 5% overall in the last 2 hours
            engine.on_hour(hour, [80, 80], [f, f], [80, 80], [0, 0])
        doc = engine.document()
        budget = 1 - doc["objective"]
        assert doc["burn_rates"]["1h"] == pytest.approx(0.1 / budget)
        assert doc["burn_rates"]["6h"] == pytest.approx(
            (32 / 960) / budget
        )
        registry = engine.to_registry()
        snap = registry.snapshot()
        assert snap['slo_burn_rate{window="1h"}'] == pytest.approx(
            0.1 / budget
        )
        assert 'slo_availability{side="client"}' in snap

    def test_state_round_trip_then_fold_is_continuous(self):
        a, b = self._engine(), SLOEngine()
        for hour in range(9):
            a.on_hour(hour, [40, 40], [hour, 0], [40, 40], [0, 0])
        b.restore_state(json.loads(json.dumps(a.export_state())))
        for hour in range(9, 20):
            for e in (a, b):
                e.on_hour(hour, [40, 40], [3, 0], [40, 40], [0, 0])
        assert a.export_state() == b.export_state()
        assert json.dumps(a.document(), sort_keys=True) == json.dumps(
            b.document(), sort_keys=True
        )

    def test_document_before_the_first_hour_lists_no_entity(self):
        doc = self._engine().document()
        assert doc["sides"]["client"]["entities"] == 0
        assert doc["regions"] == {} and doc["worst_entities"] == []

    def test_restore_refuses_a_different_objective(self):
        a = self._engine()
        a.on_hour(0, [40, 40], [20, 0], [40, 40], [0, 0])
        b = SLOEngine(objective=0.999)
        with pytest.raises(ValueError, match="different objective"):
            b.restore_state(json.loads(json.dumps(a.export_state())))
        assert b.hours_folded == 0

    def test_table_renders_down_threshold_and_worst(self):
        engine = self._engine()
        for hour in range(4):
            engine.on_hour(hour, [40, 40], [20, 0], [40, 40], [0, 0])
        table = render_slo_table(engine.document())
        assert f"f={DOWN_THRESHOLD:g}" in table
        assert "c0" in table and "burn rates" in table


class TestRollingDigest:
    """The re-exported fold (kept for the benchmark's layer table) is
    the dataset digest's own fold."""

    def test_chunk_split_invariant_and_matches_batch(self, world, dataset):
        from repro.core.dataset import chain_seed, fingerprint_sha256

        def block(h0, h1):
            return {
                name: getattr(dataset, name)[..., h0:h1].copy()
                for name in MeasurementDataset._ARRAY_FIELDS
            }

        seed = chain_seed(fingerprint_sha256(world))
        for split in (5, 24, world.hours):
            chain = seed
            for h in range(0, world.hours, split):
                stop = min(h + split, world.hours)
                chain = fold_block(
                    chain, MeasurementDataset.block_digest(block(h, stop))
                )
            assert chain == dataset.digest()
        # Sensitive to content: one count flipped changes the digest.
        arrays = block(0, world.hours)
        arrays["transactions"][0, 0, 3] += 1
        perturbed = fold_block(seed, MeasurementDataset.block_digest(arrays))
        assert perturbed != dataset.digest()


class TestDetectorRetention:
    def _stream(self, detector, hours, n=3):
        detector.update({
            "type": "run_start",
            "hours": hours,
            "clients": [f"c{i}" for i in range(n)],
            "servers": [f"s{i}" for i in range(n)],
        })
        # c0 -> s2 fails 12 of its 20 transactions in two hours of every
        # eleven: both entities rise to 20% while the rest stay calm.
        detector.fold_block(stats_block(
            [{(0, 2): 12} if hour % 11 in (3, 4) else {}
             for hour in range(hours)],
            clients=n, servers=n, per_cell=20,
        ), 0)

    def test_logged_snapshots_restore_the_same_state(self):
        """Alerts and closed episodes go to the log once; a restore from
        the last snapshot and the log is the full state, latencies and
        episode order included, and folds on identically."""
        a = OnlineDetector(retention_hours=12)
        self._stream(a, 30)
        log = MemoryLog()
        first = log.write(a.export_state(log.covered))
        assert first["alert_count"] == len(log.records["alerts"]) > 0
        assert first["closed_episodes"] == len(log.records["episodes"]) > 0

        def block(h0, h1):
            return stats_block(
                [{(0, 2): 12} if hour % 11 in (3, 4) else {}
                 for hour in range(h0, h1)],
                clients=3, servers=3, per_cell=20,
            )

        a.fold_block(block(30, 58), 30)
        state = log.write(a.export_state(log.covered))
        b = OnlineDetector(retention_hours=12)
        b.restore_state(state, log.read())
        assert b.export_state() == a.export_state()
        for d in (a, b):
            d.fold_block(block(58, 80), 58)
        assert b.export_state() == a.export_state()
        assert b.export() == a.export()
        with pytest.raises(ValueError, match="checkpoint log alerts"):
            OnlineDetector(retention_hours=12).restore_state(state, {})

    def test_trimmed_state_is_bounded_and_checkpoint_continuous(self):
        retained = OnlineDetector(retention_hours=12)
        self._stream(retained, 80)
        state = retained.export_state()
        for side in ("client", "server"):
            rates = state["sides"][side]["hour_rates"]
            assert rates and all(len(rates[i]) <= 12 for i in sorted(rates))
        # Restore mid-stream == continuous fold (trimming included).
        a = OnlineDetector(retention_hours=12)
        self._stream(a, 50)
        b = OnlineDetector(retention_hours=12)
        b.restore_state(json.loads(json.dumps(a.export_state())))
        calm = stats_block([{}] * 30, clients=3, servers=3, per_cell=20)
        for d in (a, b):
            d.fold_block(calm, 50)
        assert a.export_state() == b.export_state()

    def test_slo_burn_rules_latch_on_sustained_burn(self):
        detector = OnlineDetector(rules=SLO_BURN_RULES)
        detector.update({
            "type": "run_start", "hours": 10,
            "clients": ["c0"], "servers": ["s0"],
        })
        detector.fold_block(stats_block(
            [{(0, 0): 40}] * 4, clients=1, servers=1, per_cell=100,
        ), 0)
        fired = [a["rule"] for a in detector.snapshot()["alerts"]]
        assert fired.count("slo-fast-burn") == 1  # latching
        assert "slo-slow-burn" in fired
        detail = next(
            a["detail"] for a in detector.snapshot()["alerts"]
            if a["rule"] == "slo-fast-burn"
        )
        assert detail["burn_rate"] >= detail["burn_floor"]


#: sha256 of each horizon document of the 48 h default-seed plan,
#: serialized with ``json.dumps(..., sort_keys=True)`` and no
#: ``default`` -- a numpy value anywhere in a document raises instead
#: of rendering.  A change to the in-memory format must leave every
#: byte the ``/history`` and ``/slo`` endpoints and the retention
#: checkpoint write unchanged.
HORIZON_PINS = {
    "history:client:6h": (
        "03f98598e03c4dab5d031a8dcfe36f8fe114742d048b5af0c1fb680bf9562597"
    ),
    "history:client:day": (
        "dc85797a85d8165eabc00d4f77f98d9f639e4394badfbbbeff22a6d0204e6b49"
    ),
    "history:client:hour": (
        "fb91b2122309d0b65563ba6647a0ae8d5fe5d0b47991bd29202d96e0b48b5154"
    ),
    "history:client:week": (
        "d6e96ba85cd5ead6a6f094d2d8a5a6090699a4fc581286d6cefe5448be8a7a36"
    ),
    "history:overall:6h": (
        "40a708b0e0fda0160e6d401d02e1e12679c0f94c3f7d05a9b70b15c268271911"
    ),
    "history:overall:day": (
        "4d4e0dffe462934354f97daf521784454876753d7ac31c51b80180febebed29c"
    ),
    "history:overall:hour": (
        "47e87573f27451861d06774d60a39206582c8c170a03a19023171aaf750ea9f1"
    ),
    "history:overall:week": (
        "d190db22b62de5f9edae4addf537e06f3a2b6478e845284aba2e574bdc6c1710"
    ),
    "history:region:6h": (
        "21712d1baa87360d3d972814e1428e9c0b130338fcfc99c18052e08bdfbf69f2"
    ),
    "history:region:day": (
        "31e45382b4f9479262e7f2a868233177db98604d23209bf5d0844ae139a74696"
    ),
    "history:region:hour": (
        "224f2e66a96e605276f3db37e50463fff11f6e5a70dc77c294fb1b197de3dd13"
    ),
    "history:region:week": (
        "161175d66dc3748084b759ce0fa67e767f13f274c9d8c0c23fe5a85bac0b6932"
    ),
    "history:server:6h": (
        "3d81a4f86d997bffc025addb0a92e19cf9343c0cb7fcd176e55ac904c066abb8"
    ),
    "history:server:6h:entity": (
        "9aea33a13fa30edc9ec025f6112e536cf9dacd4889c5b921d6e9d309a0249448"
    ),
    "history:server:day": (
        "038ce5aacb2a535466138b1cbc3bd7915b7f2d97c5c435f55df90dbd8a863283"
    ),
    "history:server:hour": (
        "0321d2a6b0654299c1825e4e3335cbce8a48ef42a1c291128c4dfc7b51a3c998"
    ),
    "history:server:week": (
        "6ecd7fa6a4dddbdf8a6c81f8c15fa729d4772b35d1fa9901498fc5819199dacc"
    ),
    "history:state": (
        "ac4464de0f051c189994b9518a4ffa69a8495f5ac464ddd5ec54a0954228163e"
    ),
    "slo": (
        "a39a4d5338893e3d1cbc5a5481de917ea6030f3b73c8dcb0a0129f8c05048302"
    ),
    "slo:state": (
        "afccaf75b6ca8cbc2cf8ef3d258a25fe12f65937d8306d9abc4f58fafe3a9f26"
    ),
}

#: Blocks of 7 hours, so 6h and day cells straddle fold_block calls.
PIN_BLOCK_HOURS = 7


@pytest.fixture(scope="module")
def folded_horizon():
    """History and SLO observers fed the 48 h default-seed plan."""
    dataset = simulate_default_month(
        hours=48, per_hour=2, seed=20050101, workers=1
    ).dataset
    history, slo = HistoryStore(), SLOEngine()
    detector = OnlineDetector(observers=[history, slo])
    world = dataset.world
    detector.update({"type": "run_start", "hours": 48, **world.roster()})
    arrays = dataset.arrays()
    for h0 in range(0, 48, PIN_BLOCK_HOURS):
        h1 = min(h0 + PIN_BLOCK_HOURS, 48)
        detector.fold_block(
            {name: block[..., h0:h1] for name, block in arrays.items()}, h0
        )
    documents = {
        f"history:{series}:{res}": history.document(
            {"series": series, "res": res}
        )
        for series in ("overall", "client", "server", "region")
        for res, _, _ in RESOLUTIONS
    }
    documents["history:server:6h:entity"] = history.document(
        {"series": "server", "res": "6h", "entity": "berkeley.edu"}
    )
    documents["slo"] = slo.document()
    documents["history:state"] = history.export_state()
    documents["slo:state"] = slo.export_state()
    return documents


class TestHorizonBytesPinned:
    def test_every_document_is_pinned(self, folded_horizon):
        assert set(folded_horizon) == set(HORIZON_PINS)

    @pytest.mark.parametrize("name", sorted(HORIZON_PINS))
    def test_document_bytes(self, folded_horizon, name):
        body = json.dumps(folded_horizon[name], sort_keys=True)
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        assert digest == HORIZON_PINS[name]
