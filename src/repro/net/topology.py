"""A coarse AS-level topology and path model.

The paper's BGP analysis (Section 4.6) correlates per-prefix route
withdrawals seen at Routeviews with end-to-end TCP failures.  To make that
correlation *emerge* in the simulator rather than being hard-wired, we model
the world as a set of edge ASes (one per client site / server hosting
location) attached to a small transit core.  A prefix is reachable from a
source AS when at least one of its transit attachments is announcing the
prefix; BGP instability events tear down attachments, which (a) produces
withdrawal streams at the collector and (b) fails end-to-end paths that
relied on the withdrawn attachment.

The Figure 7 scenario -- only 2 of 73 collector neighbors withdraw, yet most
web accesses fail -- corresponds to a prefix whose edge AS has exactly two
(well-used) transit attachments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set

from repro.net.addressing import Prefix


class TopologyError(ValueError):
    """Raised for malformed topology operations."""


@dataclass(frozen=True)
class AutonomousSystem:
    """An AS, identified by number, optionally with a display name."""

    asn: int
    name: str = ""
    is_transit: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.asn <= 0xFFFFFFFF:
            raise TopologyError(f"ASN out of range: {self.asn}")


@dataclass
class EdgeAttachment:
    """One provider link from an edge AS to a transit AS.

    ``weight`` is the fraction of remote sources whose best path to the edge
    AS traverses this attachment (the "how many endpoints used these two
    neighbors" effect from Figure 7).
    """

    transit_asn: int
    weight: float
    up: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise TopologyError(f"attachment weight out of range: {self.weight}")


class Topology:
    """The AS graph: transit core plus edge ASes with weighted attachments."""

    def __init__(self) -> None:
        self._ases: Dict[int, AutonomousSystem] = {}
        self._attachments: Dict[int, List[EdgeAttachment]] = {}
        self._prefix_origin: Dict[Prefix, int] = {}

    # -- construction ------------------------------------------------------

    def add_transit(self, asn: int, name: str = "") -> AutonomousSystem:
        """Register a transit (core) AS."""
        as_obj = AutonomousSystem(asn=asn, name=name, is_transit=True)
        self._ases[asn] = as_obj
        return as_obj

    def add_edge(
        self,
        asn: int,
        attachments: Sequence[EdgeAttachment],
        name: str = "",
    ) -> AutonomousSystem:
        """Register an edge AS with its transit attachments.

        Attachment weights must sum to ~1 so that they can be interpreted as
        the fraction of remote paths using each attachment.
        """
        if not attachments:
            raise TopologyError("edge AS needs at least one attachment")
        total = sum(a.weight for a in attachments)
        if abs(total - 1.0) > 1e-6:
            raise TopologyError(f"attachment weights sum to {total}, expected 1.0")
        for attachment in attachments:
            if attachment.transit_asn not in self._ases:
                raise TopologyError(
                    f"unknown transit AS {attachment.transit_asn} in attachment"
                )
            if not self._ases[attachment.transit_asn].is_transit:
                raise TopologyError(
                    f"AS {attachment.transit_asn} is not a transit AS"
                )
        as_obj = AutonomousSystem(asn=asn, name=name, is_transit=False)
        self._ases[asn] = as_obj
        self._attachments[asn] = list(attachments)
        return as_obj

    def originate(self, prefix: Prefix, asn: int) -> None:
        """Record that ``asn`` originates ``prefix``."""
        if asn not in self._ases:
            raise TopologyError(f"unknown AS {asn}")
        self._prefix_origin[prefix] = asn

    # -- queries -----------------------------------------------------------

    def origin_of(self, prefix: Prefix) -> int:
        """The origin ASN of ``prefix``."""
        try:
            return self._prefix_origin[prefix]
        except KeyError:
            raise TopologyError(f"no origin recorded for {prefix}") from None

    def prefixes_of(self, asn: int) -> List[Prefix]:
        """All prefixes originated by ``asn``."""
        return [p for p, origin in self._prefix_origin.items() if origin == asn]

    def attachments_of(self, asn: int) -> List[EdgeAttachment]:
        """The transit attachments of an edge AS."""
        try:
            return self._attachments[asn]
        except KeyError:
            raise TopologyError(f"AS {asn} is not an edge AS") from None

    # -- reachability ------------------------------------------------------

    def up_attachments(self, asn: int) -> List[EdgeAttachment]:
        """Attachments of ``asn`` currently up."""
        return [a for a in self.attachments_of(asn) if a.up]

    def reachable_fraction(self, asn: int) -> float:
        """Fraction of remote sources that can currently reach edge AS ``asn``.

        With every attachment up this is 1.0.  When a subset is down, remote
        sources whose best path used a downed attachment are assumed to fail
        over only if *some* attachment remains up -- but convergence is not
        instant, so we return the still-valid path weight; the caller decides
        how much of the failed weight recovers within its time bin.
        """
        attachments = self.attachments_of(asn)
        return sum(a.weight for a in attachments if a.up)

    def fail_attachment(self, asn: int, transit_asn: int) -> None:
        """Tear down the edge->transit link (BGP withdrawal ensues)."""
        for attachment in self.attachments_of(asn):
            if attachment.transit_asn == transit_asn:
                attachment.up = False
                return
        raise TopologyError(f"AS {asn} has no attachment to {transit_asn}")

    def restore_attachment(self, asn: int, transit_asn: int) -> None:
        """Bring the edge->transit link back up."""
        for attachment in self.attachments_of(asn):
            if attachment.transit_asn == transit_asn:
                attachment.up = True
                return
        raise TopologyError(f"AS {asn} has no attachment to {transit_asn}")

    def restore_all(self, asn: int) -> None:
        """Bring every attachment of ``asn`` back up."""
        for attachment in self.attachments_of(asn):
            attachment.up = True

    def transit_asns(self) -> List[int]:
        """All registered transit ASNs."""
        return sorted(a.asn for a in self._ases.values() if a.is_transit)


def build_default_core(topology: Topology, num_transit: int = 8) -> List[int]:
    """Create a default transit core of ``num_transit`` ASes.

    ASNs are drawn from the familiar 2005-era tier-1 range for readability in
    traces; returns the list of ASNs created.
    """
    if num_transit < 1:
        raise TopologyError("need at least one transit AS")
    names = [
        "ATT", "Sprint", "UUNet", "Level3", "Qwest", "ICG", "Cogent", "GBLX",
        "NTT", "Telia", "Tata", "PCCW",
    ]
    asns = []
    for i in range(num_transit):
        asn = 7000 + i
        name = names[i] if i < len(names) else f"Transit{i}"
        topology.add_transit(asn, name=name)
        asns.append(asn)
    return asns


def random_attachments(
    transit_asns: Sequence[int],
    rng: random.Random,
    count: Optional[int] = None,
) -> List[EdgeAttachment]:
    """Build a plausible multihoming profile for an edge AS.

    Most edges are dual-homed with a dominant primary provider; some are
    single-homed (these are the prefixes for which a single withdrawal kills
    reachability).
    """
    if not transit_asns:
        raise TopologyError("no transit ASes to attach to")
    if count is None:
        count = rng.choices([1, 2, 3], weights=[0.25, 0.55, 0.20])[0]
    count = min(count, len(transit_asns))
    chosen = rng.sample(list(transit_asns), count)
    raw = [rng.uniform(0.5, 1.0)] + [rng.uniform(0.05, 0.5) for _ in chosen[1:]]
    total = sum(raw)
    return [
        EdgeAttachment(transit_asn=asn, weight=w / total)
        for asn, w in zip(chosen, raw)
    ]
