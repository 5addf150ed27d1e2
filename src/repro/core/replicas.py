"""Replica-level analysis (Section 4.5).

Replica identification: for a website S, every distinct server IP observed
in connections to S is a candidate; only addresses carrying at least 10% of
S's connections qualify as replicas.  CDN-served sites spread connections
over hundreds of addresses, so none qualify (6 sites in the paper); the
rest have one (42) or several (32) replicas.

Server-side failure episodes are then re-derived at replica granularity
and sub-classified as **total** (all replicas above the failure threshold
in that hour) or **partial** (only a subset).  The paper finds 85% of
multi-replica episodes are total, almost all on sites whose replicas share
a /24.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.dataset import MIN_SAMPLES_PER_HOUR, MeasurementDataset

#: The paper's replica qualification rule.
REPLICA_QUALIFICATION_SHARE = 0.10


@dataclass(frozen=True)
class ReplicaCensus:
    """Replica counts per site after qualification."""

    zero_replica_sites: List[str]
    single_replica_sites: List[str]
    multi_replica_sites: List[str]

    def counts(self) -> Tuple[int, int, int]:
        """(zero, single, multi) site counts -- the paper's 6/42/32."""
        return (
            len(self.zero_replica_sites),
            len(self.single_replica_sites),
            len(self.multi_replica_sites),
        )


def qualify_replicas(dataset: MeasurementDataset) -> Dict[str, List[int]]:
    """Replica indices carrying >= 10% of each site's connections.

    For CDN sites the observed address pool is large (the dataset's world
    records the pool size), so per-address shares fall below the cut and
    the qualifying set is empty -- matching how the rule plays out on raw
    observations.
    """
    result: Dict[str, List[int]] = {}
    totals = dataset.replica_connections.sum(axis=(1, 2), dtype=np.int64)
    for si, site in enumerate(dataset.world.websites):
        if site.cdn:
            # Connections spread over the CDN pool: max share = a few
            # percent, below the threshold.
            result[site.name] = []
            continue
        site_total = int(totals[si])
        if site_total == 0:
            result[site.name] = []
            continue
        per_replica = dataset.replica_connections[si].sum(axis=1, dtype=np.int64)
        qualifying = [
            ri
            for ri in range(site.num_replicas)
            if per_replica[ri] / site_total >= REPLICA_QUALIFICATION_SHARE
        ]
        result[site.name] = qualifying
    return result


def replica_census(dataset: MeasurementDataset) -> ReplicaCensus:
    """The Section 4.5 census: how many sites have 0 / 1 / 2+ replicas."""
    qualified = qualify_replicas(dataset)
    zero, single, multi = [], [], []
    for name, replicas in qualified.items():
        if len(replicas) == 0:
            zero.append(name)
        elif len(replicas) == 1:
            single.append(name)
        else:
            multi.append(name)
    return ReplicaCensus(
        zero_replica_sites=sorted(zero),
        single_replica_sites=sorted(single),
        multi_replica_sites=sorted(multi),
    )


def replica_rate_matrix(
    dataset: MeasurementDataset,
    min_samples: int = MIN_SAMPLES_PER_HOUR,
    excluded_pairs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-(site, replica, hour) connection failure rates (NaN = too few).

    ``excluded_pairs`` is the (C, S) permanent-pair mask.  Replica counts
    are aggregated over clients, so per-pair exclusion is applied by
    rescaling each site-hour's replica counts by the share of connections
    and failures that the excluded pairs contributed (connections are
    spread uniformly across a site's replicas, so proportional rescaling
    is exact in expectation).  Without this, a site with a few permanently
    broken pairs (sina.com.cn) registers as failing every hour.
    """
    conns = dataset.replica_connections.astype(np.float64)
    fails = dataset.replica_failed_connections.astype(np.float64)
    if excluded_pairs is not None:
        site_conns, kept_conns, site_fails, kept_fails = (
            dataset.sums((name,), "sh", excluded)
            for name in ("connections", "failed_connections")
            for excluded in (None, excluded_pairs)
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            conn_scale = np.where(site_conns > 0, kept_conns / np.maximum(1, site_conns), 1.0)
            fail_scale = np.where(site_fails > 0, kept_fails / np.maximum(1, site_fails), 1.0)
        conns = conns * conn_scale[:, None, :]
        fails = fails * fail_scale[:, None, :]
    rates = np.full(conns.shape, np.nan, dtype=float)
    enough = conns >= min_samples
    rates[enough] = fails[enough] / conns[enough]
    return rates


@dataclass(frozen=True)
class ReplicaEpisodeStats:
    """Total vs partial replica failure episodes (Section 4.5)."""

    multi_replica_episode_hours: int
    total_replica_hours: int
    partial_replica_hours: int
    single_replica_episode_hours: int
    same_subnet_total_hours: int

    @property
    def total_fraction(self) -> float:
        """Fraction of multi-replica episodes that are total (paper: 85%)."""
        if self.multi_replica_episode_hours == 0:
            return 0.0
        return self.total_replica_hours / self.multi_replica_episode_hours

    @property
    def multi_replica_share(self) -> float:
        """Share of all server-side episode-hours on multi-replica sites
        (paper: 62%)."""
        all_hours = self.multi_replica_episode_hours + self.single_replica_episode_hours
        if all_hours == 0:
            return 0.0
        return self.multi_replica_episode_hours / all_hours


def classify_replica_episodes(
    dataset: MeasurementDataset,
    server_episodes: np.ndarray,
    threshold: float = 0.05,
    excluded_pairs: Optional[np.ndarray] = None,
) -> ReplicaEpisodeStats:
    """Sub-classify server-side episode hours as total / partial.

    ``server_episodes`` is the (S, H) boolean matrix from the blame
    analysis.  For each flagged hour of a multi-replica site, the hour is
    *total* if every qualifying replica's connection failure rate meets the
    threshold, *partial* otherwise.
    """
    qualified = qualify_replicas(dataset)
    rates = replica_rate_matrix(dataset, excluded_pairs=excluded_pairs)
    multi_hours = 0
    total_hours = 0
    partial_hours = 0
    single_hours = 0
    same_subnet_total = 0
    for si, site in enumerate(dataset.world.websites):
        replicas = qualified[site.name]
        flagged = np.nonzero(server_episodes[si])[0]
        if len(replicas) <= 1:
            single_hours += len(flagged)
            continue
        for h in flagged:
            multi_hours += 1
            replica_rates = rates[si, replicas, h]
            # Unmeasured replicas (too few samples) count as affected: a
            # dead replica attracts no successful connections.
            above = np.isnan(replica_rates) | (replica_rates >= threshold)
            if above.all():
                total_hours += 1
                if site.replicas_same_subnet:
                    same_subnet_total += 1
            else:
                partial_hours += 1
    return ReplicaEpisodeStats(
        multi_replica_episode_hours=multi_hours,
        total_replica_hours=total_hours,
        partial_replica_hours=partial_hours,
        single_replica_episode_hours=single_hours,
        same_subnet_total_hours=same_subnet_total,
    )


def replica_episode_hours_by_site(
    dataset: MeasurementDataset,
    threshold: float = 0.05,
    min_samples: int = MIN_SAMPLES_PER_HOUR,
    excluded_pairs: Optional[np.ndarray] = None,
) -> Dict[str, int]:
    """Episode-hour counts at replica granularity per site.

    This is the Table 6 counting unit: an hour in which a qualifying
    replica's aggregate connection failure rate is >= f counts once per
    replica (sina.com.cn's 764 > 744 is only possible this way).
    Permanent pairs should be excluded (pass the Section 4.4.2 mask), as
    the paper does for all of Section 4.4+.
    """
    qualified = qualify_replicas(dataset)
    rates = replica_rate_matrix(dataset, min_samples, excluded_pairs)
    result: Dict[str, int] = {}
    for si, site in enumerate(dataset.world.websites):
        replicas = qualified[site.name]
        if not replicas:
            result[site.name] = 0
            continue
        site_rates = rates[si, replicas, :]
        with np.errstate(invalid="ignore"):
            flagged = np.nan_to_num(site_rates, nan=-1.0) >= threshold
        result[site.name] = int(flagged.sum())
    return result
