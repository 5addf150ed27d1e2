"""MRT-style BGP update messages and the archive that stores them.

An update is (timestamp, peering session, prefix, announce|withdraw,
as_path).  The archive aggregates updates into per-prefix-per-hour
statistics -- exactly the quantities the paper's Section 3.6 extracts from
the MRT files: "the number of BGP route withdrawals and number of BGP route
announcements heard for each client or server prefix in each 1-hour
episode" plus "how many of the 73 peering sessions advertised at least 1
announcement for the relevant prefix, and how many participated in
withdrawals."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

from repro.net.addressing import Prefix


class UpdateKind(enum.Enum):
    """Announcement or withdrawal."""

    ANNOUNCE = "announce"
    WITHDRAW = "withdraw"


class _UpdateFields(NamedTuple):
    timestamp: float
    session_id: int
    prefix: Prefix
    kind: UpdateKind
    as_path: Tuple[int, ...] = ()


class BGPUpdate(_UpdateFields):
    """One BGP update as recorded by a collector.

    A named tuple: immutable, equal and hashing equal by value, and
    cheap to build -- a 48-hour ground truth makes ~19,000 of them.  An
    announcement may carry an empty ``as_path`` (synthetic reset
    re-announcements); a negative timestamp is refused.
    """

    __slots__ = ()

    def __new__(
        cls,
        timestamp: float,
        session_id: int,
        prefix: Prefix,
        kind: UpdateKind,
        as_path: Tuple[int, ...] = (),
    ) -> "BGPUpdate":
        if timestamp < 0:
            raise ValueError("negative timestamp")
        return tuple.__new__(
            cls, (timestamp, session_id, prefix, kind, as_path)
        )


@dataclass
class HourlyPrefixStats:
    """Raw per-prefix counts within one 1-hour bin."""

    announcements: int = 0
    withdrawals: int = 0
    announcing_sessions: Set[int] = field(default_factory=set)
    withdrawing_sessions: Set[int] = field(default_factory=set)

    @property
    def announcing_neighbors(self) -> int:
        """Number of distinct sessions that announced the prefix."""
        return len(self.announcing_sessions)

    @property
    def withdrawing_neighbors(self) -> int:
        """Number of distinct sessions that withdrew the prefix."""
        return len(self.withdrawing_sessions)


@dataclass
class HourlyGlobalStats:
    """Collector-wide counts for one hour, used by reset detection."""

    unique_prefixes_announced: int = 0
    total_updates: int = 0


class UpdateArchive:
    """A month of updates with hourly aggregation.

    ``hour_duration`` is 3600 s; ``epoch`` anchors hour 0.  The archive also
    tracks a synthetic "rest of the routing table" announcement count per
    hour, so collector resets (which re-announce the full table, not just
    our 137 tracked prefixes) trip the cleaning heuristic the way real
    Routeviews resets do.
    """

    HOUR = 3600.0

    def __init__(self, epoch: float = 0.0, table_size: int = 120_000) -> None:
        if table_size < 1:
            raise ValueError("table size must be positive")
        self.epoch = epoch
        self.table_size = table_size
        self._updates: List[BGPUpdate] = []
        self._untracked_announced: Dict[int, int] = {}

    def add(self, update: BGPUpdate) -> None:
        """Record one update."""
        self._updates.append(update)

    def extend(self, updates: Iterable[BGPUpdate]) -> None:
        """Record many updates."""
        self._updates.extend(updates)

    def note_untracked_announcements(self, hour: int, unique_prefixes: int) -> None:
        """Record that ``unique_prefixes`` outside the tracked set were
        (re-)announced during ``hour`` -- the signature of a session reset."""
        if unique_prefixes < 0:
            raise ValueError("negative prefix count")
        self._untracked_announced[hour] = (
            self._untracked_announced.get(hour, 0) + unique_prefixes
        )

    def untracked_announcements(self) -> List[Tuple[int, int]]:
        """The untracked-announcement counts as (hour, count), hour-sorted."""
        return sorted(self._untracked_announced.items())

    def __len__(self) -> int:
        return len(self._updates)

    @property
    def updates(self) -> List[BGPUpdate]:
        """All updates in insertion order."""
        return list(self._updates)

    def hour_of(self, timestamp: float) -> int:
        """The hour bin index of a timestamp."""
        return int((timestamp - self.epoch) // self.HOUR)

    def updates_for(self, prefix: Prefix) -> List[BGPUpdate]:
        """All updates for one prefix, time-sorted."""
        return sorted(
            (u for u in self._updates if u.prefix == prefix),
            key=lambda u: u.timestamp,
        )

    def hourly_stats(self) -> Dict[Tuple[Prefix, int], HourlyPrefixStats]:
        """Aggregate updates into per-(prefix, hour) statistics."""
        stats: Dict[Tuple[Prefix, int], HourlyPrefixStats] = {}
        for update in self._updates:
            key = (update.prefix, self.hour_of(update.timestamp))
            bucket = stats.get(key)
            if bucket is None:
                bucket = HourlyPrefixStats()
                stats[key] = bucket
            if update.kind is UpdateKind.ANNOUNCE:
                bucket.announcements += 1
                bucket.announcing_sessions.add(update.session_id)
            else:
                bucket.withdrawals += 1
                bucket.withdrawing_sessions.add(update.session_id)
        return stats

    def global_stats(self) -> Dict[int, HourlyGlobalStats]:
        """Per-hour collector-wide statistics (tracked + untracked)."""
        per_hour_prefixes: Dict[int, Set[Prefix]] = {}
        per_hour_updates: Dict[int, int] = {}
        for update in self._updates:
            hour = self.hour_of(update.timestamp)
            per_hour_updates[hour] = per_hour_updates.get(hour, 0) + 1
            if update.kind is UpdateKind.ANNOUNCE:
                per_hour_prefixes.setdefault(hour, set()).add(update.prefix)
        result: Dict[int, HourlyGlobalStats] = {}
        hours = set(per_hour_updates) | set(self._untracked_announced)
        for hour in hours:
            tracked = len(per_hour_prefixes.get(hour, ()))
            untracked = self._untracked_announced.get(hour, 0)
            result[hour] = HourlyGlobalStats(
                unique_prefixes_announced=tracked + untracked,
                total_updates=per_hour_updates.get(hour, 0) + untracked,
            )
        return result
