"""Tests for the collector fleet."""

import random

import pytest

from repro.bgp.messages import BGPUpdate, UpdateArchive, UpdateKind
from repro.bgp.routeviews import (
    COLLECTOR_SERVERS,
    TOTAL_SESSIONS,
    CollectorFleet,
    PeeringSession,
    default_sessions,
)
from repro.net.addressing import Prefix

P1 = Prefix.parse("10.1.0.0/24")


def make_fleet(seed=1):
    rng = random.Random(seed)
    archive = UpdateArchive(table_size=1000)
    sessions = default_sessions([7000, 7001, 7002], rng)
    return CollectorFleet(sessions, archive, rng), archive


class TestSessions:
    def test_default_session_count(self):
        sessions = default_sessions([7000], random.Random(0))
        assert len(sessions) == TOTAL_SESSIONS

    def test_sessions_spread_over_servers(self):
        sessions = default_sessions([7000], random.Random(0))
        servers = {s.server for s in sessions}
        assert servers == set(COLLECTOR_SERVERS)

    def test_unknown_server_rejected(self):
        with pytest.raises(ValueError):
            PeeringSession(session_id=0, server="bogus", peer_asn=7000)

    def test_needs_transits(self):
        with pytest.raises(ValueError):
            default_sessions([], random.Random(0))


class TestSeeding:
    def test_seed_announces_on_all_sessions(self):
        fleet, archive = make_fleet()
        fleet.seed_prefix(P1, [7000, 7001], [0.7, 0.3], timestamp=0.0)
        assert len(fleet.sessions_with_route(P1)) == TOTAL_SESSIONS
        assert len(archive) == TOTAL_SESSIONS
        assert P1 in fleet.tracked_prefixes()

    def test_limited_visibility(self):
        fleet, _ = make_fleet()
        fleet.seed_prefix(P1, [7000], [1.0], timestamp=0.0, visible_sessions=10)
        assert len(fleet.sessions_with_route(P1)) == 10

    def test_sessions_via_partition(self):
        fleet, _ = make_fleet()
        fleet.seed_prefix(P1, [7000, 7001], [0.5, 0.5], timestamp=0.0)
        via_a = set(fleet.sessions_via(P1, 7000))
        via_b = set(fleet.sessions_via(P1, 7001))
        assert via_a.isdisjoint(via_b)
        assert len(via_a) + len(via_b) == TOTAL_SESSIONS

    def test_attachment_list_validation(self):
        fleet, _ = make_fleet()
        with pytest.raises(ValueError):
            fleet.seed_prefix(P1, [7000], [0.5, 0.5], timestamp=0.0)
        with pytest.raises(ValueError):
            fleet.seed_prefix(P1, [], [], timestamp=0.0)


class TestWithdrawAnnounce:
    def test_withdraw_removes_routes(self):
        fleet, archive = make_fleet()
        fleet.seed_prefix(P1, [7000], [1.0], timestamp=0.0)
        sessions = fleet.sessions_with_route(P1)[:5]
        emitted = fleet.withdraw(P1, sessions, timestamp=100.0)
        assert emitted == 5
        assert len(fleet.sessions_with_route(P1)) == TOTAL_SESSIONS - 5

    def test_withdraw_idempotent_per_session(self):
        fleet, _ = make_fleet()
        fleet.seed_prefix(P1, [7000], [1.0], timestamp=0.0)
        sid = fleet.sessions_with_route(P1)[0]
        assert fleet.withdraw(P1, [sid], timestamp=10.0) == 1
        assert fleet.withdraw(P1, [sid], timestamp=20.0) == 0

    def test_flapping_emits_extra_messages(self):
        fleet, archive = make_fleet()
        fleet.seed_prefix(P1, [7000], [1.0], timestamp=0.0)
        sid = fleet.sessions_with_route(P1)[0]
        emitted = fleet.withdraw(P1, [sid], timestamp=10.0, flap_factor=3.0)
        assert emitted == 3

    def test_announce_restores(self):
        fleet, _ = make_fleet()
        fleet.seed_prefix(P1, [7000], [1.0], timestamp=0.0)
        sessions = fleet.sessions_with_route(P1)[:5]
        fleet.withdraw(P1, sessions, timestamp=10.0)
        fleet.announce(P1, sessions, timestamp=100.0)
        assert len(fleet.sessions_with_route(P1)) == TOTAL_SESSIONS


class TestReset:
    def test_reset_reannounces_and_records_storm(self):
        fleet, archive = make_fleet()
        fleet.seed_prefix(P1, [7000], [1.0], timestamp=0.0)
        before = len(archive)
        emitted = fleet.session_reset("eqix", timestamp=500.0)
        assert emitted > 0
        assert len(archive) == before + emitted
        stats = archive.global_stats()
        assert stats[0].unique_prefixes_announced >= archive.table_size - 1

    def test_reset_unknown_server(self):
        fleet, _ = make_fleet()
        with pytest.raises(ValueError):
            fleet.session_reset("bogus", timestamp=0.0)

    def test_fleet_needs_sessions(self):
        with pytest.raises(ValueError):
            CollectorFleet([], UpdateArchive(), random.Random(0))


class FlatReferenceFleet:
    """The fleet as one flat ``(session, prefix)`` map, every lookup a full
    scan: the simplest statement of what :class:`CollectorFleet` returns,
    and in which order."""

    def __init__(self, sessions, archive, rng):
        self.sessions = list(sessions)
        self.archive = archive
        self.rng = rng
        self.routes = {}
        self.transit = {}
        self.tracked = set()

    def seed_prefix(self, prefix, asns, weights, timestamp, visible_sessions=None):
        self.tracked.add(prefix)
        sessions = self.sessions
        if visible_sessions is not None and visible_sessions < len(sessions):
            sessions = self.rng.sample(self.sessions, visible_sessions)
        for s in sessions:
            transit = self.rng.choices(list(asns), weights=list(weights))[0]
            self.transit[(s.session_id, prefix)] = transit
            self.routes[(s.session_id, prefix)] = True
            self.archive.add(BGPUpdate(
                timestamp, s.session_id, prefix, UpdateKind.ANNOUNCE,
                (s.peer_asn, transit),
            ))

    def sessions_via(self, prefix, transit_asn):
        return [sid for (sid, p), t in self.transit.items()
                if p == prefix and t == transit_asn]

    def sessions_with_route(self, prefix):
        return [sid for (sid, p), up in self.routes.items() if p == prefix and up]

    def withdraw(self, prefix, session_ids, timestamp, flap_factor=1.0):
        emitted = 0
        for sid in session_ids:
            if not self.routes.get((sid, prefix), False):
                continue
            self.routes[(sid, prefix)] = False
            t = timestamp
            for flap in range(max(1, round(flap_factor))):
                if flap > 0:
                    self.archive.add(
                        BGPUpdate(t, sid, prefix, UpdateKind.ANNOUNCE, (sid,))
                    )
                t += self.rng.uniform(1.0, 30.0)
                self.archive.add(BGPUpdate(t, sid, prefix, UpdateKind.WITHDRAW))
                emitted += 1
        return emitted

    def announce(self, prefix, session_ids, timestamp, spread_seconds=120.0):
        for sid in session_ids:
            self.routes[(sid, prefix)] = True
            self.archive.add(BGPUpdate(
                timestamp + self.rng.uniform(0.0, spread_seconds), sid, prefix,
                UpdateKind.ANNOUNCE, (sid,),
            ))
        return len(session_ids)

    def session_reset(self, server, timestamp):
        emitted = 0
        for s in self.sessions:
            if s.server != server:
                continue
            for prefix in self.tracked:
                if self.routes.get((s.session_id, prefix), False):
                    self.archive.add(BGPUpdate(
                        timestamp + self.rng.uniform(0.0, 300.0), s.session_id,
                        prefix, UpdateKind.ANNOUNCE, (s.peer_asn,),
                    ))
                    emitted += 1
        self.archive.note_untracked_announcements(
            self.archive.hour_of(timestamp),
            self.archive.table_size - len(self.tracked),
        )
        return emitted


class TestMatchesFlatReference:
    """The per-prefix index returns what a full scan of a flat map does,
    in the same order, so every rng draw over its lists is unchanged."""

    TRANSITS = [7000, 7001, 7002]

    def _pair(self, seed):
        fleets = []
        for _ in range(2):
            rng = random.Random(seed)
            archive = UpdateArchive(table_size=1000)
            sessions = default_sessions(self.TRANSITS, rng)
            fleets.append((sessions, archive, rng))
        (s1, a1, r1), (s2, a2, r2) = fleets
        return CollectorFleet(s1, a1, r1), FlatReferenceFleet(s2, a2, r2)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_operation_sequences(self, seed):
        fleet, ref = self._pair(seed)
        driver = random.Random(1000 + seed)
        # The last prefix is only ever announced or withdrawn, never seeded.
        prefixes = [Prefix.parse(f"10.{i}.0.0/16") for i in range(6)]
        session_ids = [s.session_id for s in fleet.sessions]
        for step in range(160):
            prefix = driver.choice(prefixes)
            op = "seed" if step < 4 else driver.choice(
                ["seed", "withdraw", "withdraw", "announce", "announce", "reset"]
            )
            t = driver.uniform(0.0, 48 * 3600.0)
            if op == "seed" and prefix != prefixes[-1]:
                asns = driver.sample(self.TRANSITS, driver.randint(1, 3))
                weights = [driver.random() + 0.1 for _ in asns]
                visible = driver.choice([None, None, 5, 12, 40, 80])
                for f in (fleet, ref):
                    f.seed_prefix(prefix, asns, weights, t, visible_sessions=visible)
            elif op == "withdraw":
                sids = driver.sample(session_ids, driver.randint(0, 20))
                flaps = driver.choice([1.0, 2.0, 3.0])
                assert fleet.withdraw(prefix, sids, t, flap_factor=flaps) == \
                    ref.withdraw(prefix, sids, t, flap_factor=flaps)
            elif op == "announce":
                sids = driver.sample(session_ids, driver.randint(0, 20))
                assert fleet.announce(prefix, sids, t) == ref.announce(prefix, sids, t)
            elif op == "reset":
                server = driver.choice(COLLECTOR_SERVERS)
                assert fleet.session_reset(server, t) == ref.session_reset(server, t)
            for p in prefixes:
                assert fleet.sessions_with_route(p) == ref.sessions_with_route(p)
                for asn in self.TRANSITS:
                    assert fleet.sessions_via(p, asn) == ref.sessions_via(p, asn)
        assert fleet.archive.updates == ref.archive.updates
        assert fleet.archive.untracked_announcements() == \
            ref.archive.untracked_announcements()
