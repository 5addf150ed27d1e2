"""BGP instability vs end-to-end TCP failures (Section 4.6).

Consumes (a) the cleaned per-prefix-hour BGP statistics and (b) the
dataset's per-client-hour and per-replica-hour connection failure counts,
and produces:

* the two instability definitions' prefix-hour sets and their sizes (the
  paper's 111 and 32);
* the TCP failure-rate distribution during instability hours (Figure 6);
* the per-client time series for the Figure 5 / Figure 7 showcases
  (connection attempts, failures, longest failure streak, withdrawals,
  withdrawing neighbors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from repro import obs

from repro.bgp.cleaning import (
    CleanedHourlyStats,
    clean_hourly_stats,
    instability_hours_by_neighbors,
    instability_hours_by_volume,
)
from repro.bgp.messages import UpdateArchive
from repro.core.dataset import MeasurementDataset
from repro.net.addressing import Prefix

#: Minimum connection attempts in an hour for a rate to count.
MIN_CONNECTIONS = 10


@dataclass
class EndpointIndex:
    """Maps prefixes to the client rows / replica cells they cover."""

    client_rows: Dict[Prefix, List[int]] = field(default_factory=dict)
    replica_cells: Dict[Prefix, List[Tuple[int, int]]] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        dataset: MeasurementDataset,
        prefix_of_client: Dict[str, Prefix],
        prefix_of_replica: Dict[Tuple[str, int], Prefix],
    ) -> "EndpointIndex":
        index = cls()
        for name, prefix in prefix_of_client.items():
            ci = dataset.world.client_idx(name)
            index.client_rows.setdefault(prefix, []).append(ci)
        for (site_name, ri), prefix in prefix_of_replica.items():
            si = dataset.world.site_idx(site_name)
            index.replica_cells.setdefault(prefix, []).append((si, ri))
        return index


def hourly_failure_rate_for_prefix(
    dataset: MeasurementDataset,
    index: EndpointIndex,
    prefix: Prefix,
    hour: int,
    min_connections: int = MIN_CONNECTIONS,
) -> Optional[float]:
    """The end-to-end TCP connection failure rate for a prefix-hour.

    Aggregates over every client and replica the prefix covers; returns
    None when there were too few connection attempts to judge.
    """
    conns = 0
    fails = 0
    for ci in index.client_rows.get(prefix, ()):
        conns += int(dataset.connections[ci, :, hour].sum())
        fails += int(dataset.failed_connections[ci, :, hour].sum())
    for si, ri in index.replica_cells.get(prefix, ()):
        conns += int(dataset.replica_connections[si, ri, hour])
        fails += int(dataset.replica_failed_connections[si, ri, hour])
    if conns < min_connections:
        return None
    return fails / conns


@dataclass
class InstabilityCorrelation:
    """The Section 4.6 headline numbers for one instability definition."""

    definition: str
    instability_hours: int
    measured_hours: int
    failure_rates: List[float]

    def fraction_over(self, rate: float) -> float:
        """Fraction of measured instability hours with failure rate > x."""
        if not self.failure_rates:
            return 0.0
        return sum(1 for r in self.failure_rates if r > rate) / len(
            self.failure_rates
        )

    def cdf(self) -> Tuple[np.ndarray, np.ndarray]:
        """(sorted rates, cdf) -- the Figure 6 curve."""
        rates = np.sort(np.array(self.failure_rates))
        if rates.size == 0:
            return rates, rates
        return rates, np.arange(1, rates.size + 1) / rates.size


@obs.span("bgp.correlate_instability")
def correlate_instability(
    dataset: MeasurementDataset,
    archive: UpdateArchive,
    index: EndpointIndex,
    min_withdrawing_neighbors: int = 70,
    volume_min_withdrawals: int = 75,
    volume_min_neighbors: int = 50,
) -> Tuple[InstabilityCorrelation, InstabilityCorrelation]:
    """Run both of the paper's instability definitions.

    Returns (by_neighbors, by_volume) correlations.
    """
    cleaned = clean_hourly_stats(archive)
    tracked = set(index.client_rows) | set(index.replica_cells)

    def build(name: str, keys: Set[Tuple[Prefix, int]]) -> InstabilityCorrelation:
        keys = {k for k in keys if k[0] in tracked and 0 <= k[1] < dataset.world.hours}
        rates = []
        for prefix, hour in sorted(keys, key=lambda k: (str(k[0]), k[1])):
            rate = hourly_failure_rate_for_prefix(dataset, index, prefix, hour)
            if rate is not None:
                rates.append(rate)
        return InstabilityCorrelation(
            definition=name,
            instability_hours=len(keys),
            measured_hours=len(rates),
            failure_rates=rates,
        )

    by_neighbors = build(
        f">={min_withdrawing_neighbors} neighbors withdrawing",
        instability_hours_by_neighbors(cleaned, min_withdrawing_neighbors),
    )
    by_volume = build(
        f">={volume_min_withdrawals} withdrawals from >={volume_min_neighbors} neighbors",
        instability_hours_by_volume(
            cleaned, volume_min_withdrawals, volume_min_neighbors
        ),
    )
    return by_neighbors, by_volume


# --------------------------------------------------------------------------
# Per-client time series (Figures 5 and 7)
# --------------------------------------------------------------------------


@dataclass
class ClientTimeseries:
    """The five stacked series of Figures 5 / 7 for one client."""

    client_name: str
    hours: np.ndarray
    attempts: np.ndarray
    failures: np.ndarray
    longest_streak: np.ndarray
    withdrawals: np.ndarray
    withdrawing_neighbors: np.ndarray


@obs.span("bgp.client_timeseries")
def client_timeseries(
    dataset: MeasurementDataset,
    archive: UpdateArchive,
    index: EndpointIndex,
    client_name: str,
    streak_rng_seed: int = 3,
) -> ClientTimeseries:
    """Build the Figure 5/7 panel data for one client.

    The longest-consecutive-failure streak is estimated from the hour's
    attempt/failure counts: failures during a routing outage are
    consecutive (the prefix is dark for a contiguous sub-interval), whereas
    intermittent failures scatter.  With only hourly counts we approximate
    the streak as ``failures`` when the failure rate is high (>30%:
    contiguous outage) and as the longest run expected from random
    placement otherwise.
    """
    import random as _random

    ci = dataset.world.client_idx(client_name)
    hours = dataset.world.hours
    attempts = dataset.connections[ci].sum(axis=0, dtype=np.int64)
    failures = dataset.failed_connections[ci].sum(axis=0, dtype=np.int64)

    rng = _random.Random(streak_rng_seed)
    streaks = np.zeros(hours, dtype=np.int64)
    for h in range(hours):
        a, f = int(attempts[h]), int(failures[h])
        if a == 0 or f == 0:
            continue
        rate = f / a
        if rate > 0.3:
            streaks[h] = f  # contiguous outage
        else:
            streaks[h] = _longest_run_sample(a, f, rng)

    # BGP series for the client's prefix.
    prefix = None
    for pfx, rows in index.client_rows.items():
        if ci in rows:
            prefix = pfx
            break
    withdrawals = np.zeros(hours, dtype=np.int64)
    neighbors = np.zeros(hours, dtype=np.int64)
    if prefix is not None:
        stats = archive.hourly_stats()
        for (pfx, h), bucket in stats.items():
            if pfx == prefix and 0 <= h < hours:
                withdrawals[h] = bucket.withdrawals
                neighbors[h] = bucket.withdrawing_neighbors

    return ClientTimeseries(
        client_name=client_name,
        hours=np.arange(hours),
        attempts=attempts,
        failures=failures,
        longest_streak=streaks,
        withdrawals=withdrawals,
        withdrawing_neighbors=neighbors,
    )


def _longest_run_sample(attempts: int, failures: int, rng) -> int:
    """Longest failure run when failures land randomly among attempts."""
    positions = sorted(rng.sample(range(attempts), min(failures, attempts)))
    longest = run = 1
    for prev, cur in zip(positions, positions[1:]):
        run = run + 1 if cur == prev + 1 else 1
        longest = max(longest, run)
    return longest


def instability_rarity(
    dataset: MeasurementDataset,
    correlation: InstabilityCorrelation,
    num_prefixes: int,
) -> float:
    """Instability prefix-hours as a fraction of all prefix-hours (the
    paper: < 0.08% of data points)."""
    total = num_prefixes * dataset.world.hours
    return correlation.instability_hours / total if total else 0.0
