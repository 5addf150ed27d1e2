"""A Routeviews-like collector fleet.

The paper uses 5 servers (Routeviews2, EQIX, WIDE, LINX, ISC) with 73
peering sessions in total.  Each session is a BGP feed from some AS; for
each tracked prefix, a session either has a route (announced) or not
(withdrawn).  Routing events in the simulated world are *observed* by the
fleet: when an edge AS loses a transit attachment, the sessions whose view
of the prefix transited that attachment withdraw the route, then re-announce
as convergence completes.

The fleet also models collector-side session resets: a reset re-announces
the full table on the affected server's sessions, polluting that hour with
false updates -- the artefact Section 3.6's cleaning removes.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Set

from repro.bgp.messages import BGPUpdate, UpdateArchive, UpdateKind
from repro.net.addressing import Prefix

#: The five collector servers of Section 3.6.
COLLECTOR_SERVERS = ("routeviews2", "eqix", "wide", "linx", "isc")

#: Total peering sessions across the fleet.
TOTAL_SESSIONS = 73


@dataclass(frozen=True)
class PeeringSession:
    """One BGP feed into a collector server."""

    session_id: int
    server: str
    peer_asn: int

    def __post_init__(self) -> None:
        if self.server not in COLLECTOR_SERVERS:
            raise ValueError(f"unknown collector server {self.server!r}")


def default_sessions(
    transit_asns: Sequence[int], rng: random.Random, total: int = TOTAL_SESSIONS
) -> List[PeeringSession]:
    """Distribute ``total`` sessions across the 5 servers and transit ASes.

    Each session peers with some transit AS; several sessions may share a
    peer AS (large ISPs peer with multiple collectors), matching the paper's
    "73 peering sessions with a variety of ASes".
    """
    if not transit_asns:
        raise ValueError("need at least one transit AS")
    sessions = []
    for session_id in range(total):
        server = COLLECTOR_SERVERS[session_id % len(COLLECTOR_SERVERS)]
        peer = rng.choice(list(transit_asns))
        sessions.append(
            PeeringSession(session_id=session_id, server=server, peer_asn=peer)
        )
    return sessions


class CollectorFleet:
    """Tracks, per session and per prefix, whether a route is present, and
    emits updates into an :class:`~repro.bgp.messages.UpdateArchive`."""

    def __init__(
        self,
        sessions: Sequence[PeeringSession],
        archive: UpdateArchive,
        rng: random.Random,
    ) -> None:
        if not sessions:
            raise ValueError("fleet needs at least one session")
        self.sessions = list(sessions)
        self.archive = archive
        self._rng = rng
        # prefix -> session_id -> route present?  Each inner dict keeps the
        # sessions in the order they were seeded for that prefix, which is
        # the order lookups return and rng draws index into.
        self._routes: Dict[Prefix, Dict[int, bool]] = {}
        self._tracked: Set[Prefix] = set()
        # prefix -> session_id -> the transit AS that session's view
        # traverses.  Set at seeding time; drives partial-visibility events.
        self._session_transit: Dict[Prefix, Dict[int, int]] = {}

    # -- seeding -------------------------------------------------------------

    def seed_prefix(
        self,
        prefix: Prefix,
        attachment_asns: Sequence[int],
        attachment_weights: Sequence[float],
        timestamp: float,
        visible_sessions: Optional[int] = None,
    ) -> None:
        """Install initial routes for ``prefix`` on (most of) the sessions.

        Each session's path is pinned to one of the prefix's transit
        attachments, chosen by weight -- so a single-attachment withdrawal
        later affects the right subset of sessions.  ``visible_sessions``
        caps visibility for poorly-connected prefixes (the paper's 5
        prefixes reachable from fewer than 13 neighbors).
        """
        if len(attachment_asns) != len(attachment_weights):
            raise ValueError("attachment lists must align")
        if not attachment_asns:
            raise ValueError("prefix needs at least one attachment")
        self._tracked.add(prefix)
        routes = self._routes.setdefault(prefix, {})
        transits = self._session_transit.setdefault(prefix, {})
        sessions = self.sessions
        if visible_sessions is not None and visible_sessions < len(sessions):
            sessions = self._rng.sample(self.sessions, visible_sessions)
        # ``random.choices`` per session, with the cumulative weights
        # built once: the same draw from the same one ``random()`` call.
        asns = list(attachment_asns)
        cum = list(accumulate(attachment_weights))
        total = cum[-1] + 0.0
        if not 0.0 < total < math.inf:
            raise ValueError("attachment weights must have a positive, "
                             "finite total")
        hi = len(asns) - 1
        for session in sessions:
            transit = asns[bisect(cum, self._rng.random() * total, 0, hi)]
            transits[session.session_id] = transit
            routes[session.session_id] = True
            self.archive.add(
                BGPUpdate(
                    timestamp=timestamp,
                    session_id=session.session_id,
                    prefix=prefix,
                    kind=UpdateKind.ANNOUNCE,
                    as_path=(session.peer_asn, transit),
                )
            )

    def tracked_prefixes(self) -> Set[Prefix]:
        """All prefixes ever seeded."""
        return set(self._tracked)

    # -- event observation -----------------------------------------------------

    def sessions_via(self, prefix: Prefix, transit_asn: int) -> List[int]:
        """Session ids whose view of ``prefix`` transits ``transit_asn``."""
        transits = self._session_transit.get(prefix, {})
        return [sid for sid, transit in transits.items() if transit == transit_asn]

    def sessions_with_route(self, prefix: Prefix) -> List[int]:
        """Session ids currently holding a route for ``prefix``."""
        routes = self._routes.get(prefix, {})
        return [sid for sid, present in routes.items() if present]

    def withdraw(
        self,
        prefix: Prefix,
        session_ids: Sequence[int],
        timestamp: float,
        flap_factor: float = 1.0,
    ) -> int:
        """Withdraw ``prefix`` on the given sessions.

        ``flap_factor`` > 1 emits extra withdraw/announce pairs per session,
        modelling path exploration during convergence ("multiple
        announcements and withdrawals were made during this period from each
        neighbor", Section 4.6).  Returns the number of withdrawal messages
        emitted.
        """
        emitted = 0
        routes = self._routes.get(prefix, {})
        for sid in session_ids:
            if not routes.get(sid, False):
                continue
            routes[sid] = False
            flaps = max(1, round(flap_factor))
            t = timestamp
            for flap in range(flaps):
                if flap > 0:
                    # Path exploration: transient re-announce then withdraw.
                    self.archive.add(
                        BGPUpdate(
                            timestamp=t,
                            session_id=sid,
                            prefix=prefix,
                            kind=UpdateKind.ANNOUNCE,
                            as_path=(sid,),
                        )
                    )
                t += self._rng.uniform(1.0, 30.0)
                self.archive.add(
                    BGPUpdate(
                        timestamp=t,
                        session_id=sid,
                        prefix=prefix,
                        kind=UpdateKind.WITHDRAW,
                    )
                )
                emitted += 1
        return emitted

    def announce(
        self,
        prefix: Prefix,
        session_ids: Sequence[int],
        timestamp: float,
        spread_seconds: float = 120.0,
    ) -> int:
        """(Re-)announce ``prefix`` on the given sessions over a convergence
        window of ``spread_seconds`` (Labovitz-style delayed convergence).
        Returns the number of announcements emitted."""
        emitted = 0
        routes = self._routes.setdefault(prefix, {})
        for sid in session_ids:
            routes[sid] = True
            self.archive.add(
                BGPUpdate(
                    timestamp=timestamp + self._rng.uniform(0.0, spread_seconds),
                    session_id=sid,
                    prefix=prefix,
                    kind=UpdateKind.ANNOUNCE,
                    as_path=(sid,),
                )
            )
            emitted += 1
        return emitted

    # -- collector artefacts ---------------------------------------------------

    def session_reset(self, server: str, timestamp: float) -> int:
        """Reset every session on ``server``: the peer re-announces its full
        table.  Tracked prefixes get real (false-positive) announcement
        updates; the rest of the table is recorded as untracked volume so
        the cleaning heuristic can detect the hour.  Returns the number of
        tracked-prefix announcements emitted."""
        if server not in COLLECTOR_SERVERS:
            raise ValueError(f"unknown collector server {server!r}")
        emitted = 0
        affected = [s for s in self.sessions if s.server == server]
        for session in affected:
            for prefix in self._tracked:
                if self._routes[prefix].get(session.session_id, False):
                    self.archive.add(
                        BGPUpdate(
                            timestamp=timestamp + self._rng.uniform(0.0, 300.0),
                            session_id=session.session_id,
                            prefix=prefix,
                            kind=UpdateKind.ANNOUNCE,
                            as_path=(session.peer_asn,),
                        )
                    )
                    emitted += 1
        # The full-table storm: everything else the sessions carry.
        hour = self.archive.hour_of(timestamp)
        self.archive.note_untracked_announcements(
            hour, self.archive.table_size - len(self._tracked)
        )
        return emitted
