"""Spread of server-side failures (Section 4.4.6, validation #1).

For each server S, consider all failures ascribed to server-side episodes
at S over the month; the *spread* is the fraction of all clients needed to
account for those failures.  A genuine server-side problem should affect
most clients (the paper finds spreads of 70-95% for the failure-prone
servers), which indirectly validates the blame attribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.blame import BlameAnalysis
from repro.core.dataset import MeasurementDataset


@dataclass(frozen=True)
class ServerSpread:
    """Spread and episode volume for one server."""

    site_name: str
    episode_hours: int
    attributed_failures: int
    affected_clients: int
    total_clients: int

    @property
    def spread(self) -> float:
        """Fraction of clients affected by the server's episodes."""
        return (
            self.affected_clients / self.total_clients if self.total_clients else 0.0
        )


def server_spreads(
    dataset: MeasurementDataset, analysis: BlameAnalysis
) -> List[ServerSpread]:
    """Compute the spread for every server with at least one episode.

    The affected-client set is taken over the whole month, as in the paper
    (footnote 3 documents the sampling limitation of per-episode spreads).
    Clients are counted against the set that was actually active (made any
    accesses) during the experiment.
    """
    attributed = analysis.server_attributed
    active_clients = (dataset.transactions.sum(axis=(1, 2), dtype=np.int64) > 0)
    total_active = int(active_clients.sum())

    spreads = []
    for si, site in enumerate(dataset.world.websites):
        episode_hours = int(analysis.server_episodes[si].sum())
        if episode_hours == 0:
            continue
        per_client = attributed[:, si]
        affected = int(((per_client > 0) & active_clients).sum())
        spreads.append(
            ServerSpread(
                site_name=site.name,
                episode_hours=episode_hours,
                attributed_failures=int(per_client.sum()),
                affected_clients=affected,
                total_clients=total_active,
            )
        )
    spreads.sort(key=lambda s: s.episode_hours, reverse=True)
    return spreads


def most_failure_prone(
    spreads: List[ServerSpread], top: int = 11
) -> List[ServerSpread]:
    """The Table 6 rows: servers with the most episode hours."""
    return spreads[:top]


def split_us_non_us(
    dataset: MeasurementDataset, spreads: List[ServerSpread]
) -> Tuple[List[ServerSpread], List[ServerSpread]]:
    """Partition spread rows into US-based and non-US-based servers,
    mirroring Table 6's two halves."""
    from repro.world.entities import SiteRegion

    us, non_us = [], []
    for row in spreads:
        site = dataset.world.website_named(row.site_name)
        (us if site.region is SiteRegion.US else non_us).append(row)
    return us, non_us
