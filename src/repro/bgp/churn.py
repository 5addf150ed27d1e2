"""BGP churn and instability-event generation.

Three processes feed the collector fleet:

1. **Background churn** -- low-rate announcements (path changes) for every
   prefix, the noise floor visible in Figures 5 and 7.
2. **Severe instability events** -- an edge AS's connectivity collapses;
   (nearly) all sessions withdraw the prefix, with convergence flapping,
   then re-announce.  This is the Figure 5 pattern ("almost all the 73
   Routeviews neighbors withdrew their routes for this client") and feeds
   the paper's first instability definition (>= 70 of 73 neighbors
   withdrawing).
3. **Localized high-impact events** -- only a couple of neighbors withdraw,
   but they carry most paths to the prefix (Figure 7: 2 neighbors, 56% TCP
   failure rate).

Each generated event also records its *end-to-end impact*: the fraction of
wide-area paths to/from the prefix that fail during the event and for how
long.  The world's fault layer consumes that impact; the analysis layer
never sees it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.bgp.routeviews import CollectorFleet
from repro.net.addressing import Prefix


@dataclass(frozen=True)
class InstabilityEvent:
    """Ground truth for one routing event affecting one prefix.

    ``start``/``duration`` are in seconds; ``path_fail_fraction`` is the
    fraction of remote endpoints whose paths to the prefix fail while the
    event is unresolved; ``withdrawing_sessions`` is how many collector
    sessions withdrew.
    """

    prefix: Prefix
    start: float
    duration: float
    path_fail_fraction: float
    withdrawing_sessions: int
    kind: str  # "severe" | "localized"

    def overlaps_hour(self, hour: int, hour_seconds: float = 3600.0) -> bool:
        """True if the event intersects the given 1-hour bin."""
        hour_start = hour * hour_seconds
        hour_end = hour_start + hour_seconds
        return self.start < hour_end and (self.start + self.duration) > hour_start

    def failure_weight_in_hour(self, hour: int, hour_seconds: float = 3600.0) -> float:
        """Expected fraction of the hour's accesses that fail due to this
        event: overlap fraction x path-fail fraction."""
        hour_start = hour * hour_seconds
        hour_end = hour_start + hour_seconds
        overlap = max(
            0.0, min(self.start + self.duration, hour_end) - max(self.start, hour_start)
        )
        return (overlap / hour_seconds) * self.path_fail_fraction


@dataclass
class ChurnConfig:
    """Tunable rates for the churn generator.

    Defaults are calibrated so that severe instability is rare -- the paper
    finds only 111 prefix-hours (out of 719 x 137 ~ 98k) with >= 70
    withdrawing neighbors, i.e. ~0.08% of data points (Section 4.6).
    """

    #: Mean background announcements per prefix per hour (Poisson).
    background_rate: float = 0.15
    #: Expected number of severe events per prefix per 744-hour month
    #: (scaled linearly for shorter/longer experiments).
    severe_events_per_prefix: float = 0.6
    #: Expected localized events per prefix per 744-hour month.
    localized_events_per_prefix: float = 0.35
    #: Severe event duration range, seconds.
    severe_duration: Tuple[float, float] = (120.0, 3600.0)
    #: Localized event duration range, seconds.
    localized_duration: Tuple[float, float] = (120.0, 1800.0)
    #: Collector resets over the month (across the 5 servers).
    collector_resets: int = 4


class ChurnGenerator:
    """Drives the collector fleet for a whole measurement period."""

    def __init__(
        self,
        fleet: CollectorFleet,
        config: ChurnConfig,
        rng: random.Random,
        hours: int,
    ) -> None:
        if hours < 1:
            raise ValueError("need at least one hour")
        self.fleet = fleet
        self.config = config
        self.hours = hours
        self._rng = rng
        self.events: List[InstabilityEvent] = []

    # -- public API ------------------------------------------------------------

    @obs.span("bgp.churn.run")
    def run(
        self,
        prefix_attachments: Dict[Prefix, Sequence[Tuple[int, float]]],
        forced_events: Sequence[InstabilityEvent] = (),
    ) -> List[InstabilityEvent]:
        """Generate the month's updates for every tracked prefix.

        ``prefix_attachments`` maps each prefix to its (transit ASN, weight)
        attachments.  ``forced_events`` lets scenario builders inject the
        Figure 5/7 showcase events deterministically; forced events are
        realized in addition to the random ones.
        """
        for prefix, attachments in prefix_attachments.items():
            self._background_churn(prefix)
            self._random_events(prefix, attachments)
        for event in forced_events:
            self._realize_forced(event, prefix_attachments[event.prefix])
        self._collector_resets()
        self.events.sort(key=lambda e: e.start)
        return list(self.events)

    # -- internals ---------------------------------------------------------------

    def _background_churn(self, prefix: Prefix) -> None:
        """Low-rate path-change announcements on random sessions."""
        expected = self.config.background_rate * self.hours
        count = self._poisson(expected)
        for _ in range(count):
            t = self._rng.uniform(0.0, self.hours * 3600.0)
            with_route = self.fleet.sessions_with_route(prefix)
            if not with_route:
                continue
            sid = self._rng.choice(with_route)
            self.fleet.announce(prefix, [sid], t, spread_seconds=0.0)

    def _random_events(
        self, prefix: Prefix, attachments: Sequence[Tuple[int, float]]
    ) -> None:
        month_scale = self.hours / 744.0
        n_severe = self._poisson(self.config.severe_events_per_prefix * month_scale)
        for _ in range(n_severe):
            start = self._rng.uniform(0.0, self.hours * 3600.0)
            duration = self._rng.uniform(*self.config.severe_duration)
            self._severe_event(prefix, start, duration)
        n_local = self._poisson(
            self.config.localized_events_per_prefix * month_scale
        )
        for _ in range(n_local):
            if len(attachments) < 2:
                continue  # localized events need a multihomed prefix
            start = self._rng.uniform(0.0, self.hours * 3600.0)
            duration = self._rng.uniform(*self.config.localized_duration)
            self._localized_event(prefix, attachments, start, duration)

    def _severe_event(self, prefix: Prefix, start: float, duration: float) -> None:
        """Total connectivity collapse: (almost) every session withdraws."""
        sessions = self.fleet.sessions_with_route(prefix)
        if not sessions:
            return
        # A few sessions may lag behind and never withdraw within the event.
        keep = self._rng.randrange(0, 3)
        withdrawing = sessions if keep == 0 else sessions[:-keep]
        # Most events withdraw once per session; a minority flap through
        # path exploration, pushing the message count past the paper's
        # second (volume-based) instability definition.
        flaps = self._rng.choices([1.0, 2.0, 3.0], weights=[0.7, 0.2, 0.1])[0]
        self.fleet.withdraw(prefix, withdrawing, start, flap_factor=flaps)
        self.fleet.announce(
            prefix, withdrawing, start + duration, spread_seconds=300.0
        )
        self.events.append(
            InstabilityEvent(
                prefix=prefix,
                start=start,
                duration=duration,
                path_fail_fraction=self._rng.uniform(0.85, 1.0),
                withdrawing_sessions=len(withdrawing),
                kind="severe",
            )
        )

    def _localized_event(
        self,
        prefix: Prefix,
        attachments: Sequence[Tuple[int, float]],
        start: float,
        duration: float,
    ) -> None:
        """One attachment fails; only the sessions routed via it withdraw --
        but end-to-end impact follows the attachment's path weight."""
        transit_asn, weight = max(attachments, key=lambda a: a[1])
        session_ids = self.fleet.sessions_via(prefix, transit_asn)
        if not session_ids:
            return
        # Usually only the handful of sessions directly peering via that
        # transit withdraw; cap at a small number (the Figure 7 pattern).
        visible = self._rng.randrange(1, min(4, len(session_ids)) + 1)
        withdrawing = self._rng.sample(session_ids, visible)
        self.fleet.withdraw(prefix, withdrawing, start, flap_factor=2.0)
        self.fleet.announce(prefix, withdrawing, start + duration)
        self.events.append(
            InstabilityEvent(
                prefix=prefix,
                start=start,
                duration=duration,
                path_fail_fraction=min(1.0, weight * self._rng.uniform(0.7, 1.0)),
                withdrawing_sessions=visible,
                kind="localized",
            )
        )

    def _realize_forced(
        self, event: InstabilityEvent, attachments: Sequence[Tuple[int, float]]
    ) -> None:
        """Emit updates matching a scenario-specified event exactly."""
        sessions = self.fleet.sessions_with_route(event.prefix)
        if event.kind == "severe":
            withdrawing = sessions[: event.withdrawing_sessions]
            self.fleet.withdraw(event.prefix, withdrawing, event.start, flap_factor=3.0)
            self.fleet.announce(
                event.prefix, withdrawing, event.start + event.duration,
                spread_seconds=300.0,
            )
        else:
            withdrawing = sessions[: event.withdrawing_sessions]
            self.fleet.withdraw(event.prefix, withdrawing, event.start, flap_factor=2.0)
            self.fleet.announce(event.prefix, withdrawing, event.start + event.duration)
        self.events.append(event)

    def _collector_resets(self) -> None:
        from repro.bgp.routeviews import COLLECTOR_SERVERS

        scaled = max(1, round(self.config.collector_resets * self.hours / 744.0))
        for _ in range(scaled):
            server = self._rng.choice(list(COLLECTOR_SERVERS))
            t = self._rng.uniform(0.0, self.hours * 3600.0)
            self.fleet.session_reset(server, t)

    def _poisson(self, mean: float) -> int:
        """Sample a Poisson variate via the Knuth method (mean is small)."""
        if mean <= 0:
            return 0
        import math

        limit = math.exp(-mean)
        k = 0
        product = self._rng.random()
        while product > limit:
            k += 1
            product *= self._rng.random()
        return k


def failure_weight_by_prefix_hour(
    events: Sequence[InstabilityEvent], hours: int
) -> Dict[Tuple[Prefix, int], float]:
    """Fold events into per-(prefix, hour) expected failure weights.

    The world's fault layer uses this to impair end-to-end paths during
    routing events; weights from overlapping events saturate at 1.0.
    """
    weights: Dict[Tuple[Prefix, int], float] = {}
    for event in events:
        first = max(0, int(event.start // 3600.0))
        last = min(hours - 1, int((event.start + event.duration) // 3600.0))
        for hour in range(first, last + 1):
            w = event.failure_weight_in_hour(hour)
            if w <= 0.0:
                continue
            key = (event.prefix, hour)
            weights[key] = min(1.0, weights.get(key, 0.0) + w)
    return weights
