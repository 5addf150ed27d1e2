"""Permanent-failure client-server pairs (Section 4.4.2).

Certain pairs fail (nearly) all month -- blocked sites, broken middleboxes,
checksum corruption.  They are identified by their month-long pair failure
rate and *excluded* from the client/server blame analysis, because a pair
that can never communicate says nothing about transient client- or
server-side problems; they would otherwise dominate the connection failure
counts (50.7% of all TCP connection failures in the paper) via wget
retries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core import quantiles
from repro.core.dataset import MeasurementDataset

#: The paper's cut: pairs failing >90% of the month.
PERMANENT_THRESHOLD = 0.90
#: Minimum transactions for a pair rate to be trusted.
MIN_PAIR_TRANSACTIONS = 50


@dataclass(frozen=True)
class PermanentPair:
    """One near-permanently-failing pair."""

    client_name: str
    site_name: str
    transactions: int
    failures: int

    @property
    def failure_rate(self) -> float:
        """Month-long pair failure rate."""
        return self.failures / self.transactions if self.transactions else 0.0


@dataclass
class PermanentPairReport:
    """The Section 4.4.2 findings."""

    pairs: List[PermanentPair]
    mask: np.ndarray  # (C, S) boolean, True = excluded
    pair_median_rate: float
    share_of_connection_failures: float
    share_of_transaction_failures: float

    @property
    def count(self) -> int:
        """Number of permanent pairs."""
        return len(self.pairs)

    def over(self, rate: float) -> List[PermanentPair]:
        """Pairs whose failure rate exceeds ``rate``."""
        return [p for p in self.pairs if p.failure_rate > rate]


def find_permanent_pairs(
    dataset: MeasurementDataset,
    threshold: float = PERMANENT_THRESHOLD,
    min_transactions: int = MIN_PAIR_TRANSACTIONS,
) -> PermanentPairReport:
    """Identify permanent pairs and quantify their failure share."""
    transactions, failures = dataset.pair_month_counts()
    with np.errstate(invalid="ignore", divide="ignore"):
        rates = np.where(transactions > 0, failures / np.maximum(1, transactions), np.nan)

    eligible = transactions >= min_transactions
    mask = eligible & (rates > threshold)

    pairs = [
        PermanentPair(
            client_name=dataset.world.clients[ci].name,
            site_name=dataset.world.websites[si].name,
            transactions=int(transactions[ci, si]),
            failures=int(failures[ci, si]),
        )
        for ci, si in zip(*np.nonzero(mask))
    ]
    pairs.sort(key=lambda p: p.failure_rate, reverse=True)

    total_failed_conns = dataset.failed_connections.sum(dtype=np.int64)
    masked_failed_conns = (
        dataset.failed_connections.sum(axis=2, dtype=np.int64)[mask].sum()
    )
    total_failures = failures.sum()
    masked_failures = failures[mask].sum()

    valid_rates = rates[eligible]
    return PermanentPairReport(
        pairs=pairs,
        mask=mask,
        pair_median_rate=(
            quantiles.median(valid_rates) if valid_rates.size else 0.0
        ),
        share_of_connection_failures=(
            float(masked_failed_conns / total_failed_conns)
            if total_failed_conns
            else 0.0
        ),
        share_of_transaction_failures=(
            float(masked_failures / total_failures) if total_failures else 0.0
        ),
    )


def pairs_by_site(report: PermanentPairReport) -> List[Tuple[str, int]]:
    """Permanent-pair counts per website, descending (the paper's
    msn.com.tw: 10, sina.com.cn: 9, sohu.com: 8 pattern)."""
    counts: dict = {}
    for pair in report.pairs:
        counts[pair.site_name] = counts.get(pair.site_name, 0) + 1
    return sorted(counts.items(), key=lambda item: item[1], reverse=True)
