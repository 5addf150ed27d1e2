"""Transaction failure classification and breakdowns (Sections 4.1-4.3).

Everything here is a pure function over a
:class:`~repro.core.dataset.MeasurementDataset`; the outputs back Table 3,
Table 4, and Figures 1-3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from repro import obs

from repro.core.dataset import MeasurementDataset
from repro.world.entities import ClientCategory


@dataclass(frozen=True)
class CategorySummary:
    """One row of Table 3."""

    category: ClientCategory
    transactions: int
    failed_transactions: int
    connections: Optional[int]
    failed_connections: Optional[int]

    @property
    def transaction_failure_rate(self) -> float:
        """Failed transactions / transactions."""
        return (
            self.failed_transactions / self.transactions if self.transactions else 0.0
        )

    @property
    def connection_failure_rate(self) -> Optional[float]:
        """Failed connections / connections, when observable."""
        if self.connections in (None, 0) or self.failed_connections is None:
            return None
        return self.failed_connections / self.connections


@obs.span("classify.category_summary")
def category_summary(dataset: MeasurementDataset) -> List[CategorySummary]:
    """Table 3: overall transaction and connection counts per category.

    Connection counts for CN are withheld (the proxy masks them), exactly
    as in the paper.
    """
    # Month totals per client; each category sums its clients' entries.
    transactions = dataset.sums(("transactions",), "c")
    failures = dataset.sums(dataset.FAILURE_FIELDS, "c")
    connections = dataset.sums(("connections",), "c")
    failed_connections = dataset.sums(("failed_connections",), "c")
    rows = []
    for category in ClientCategory:
        mask = dataset.category_mask(category)
        if not mask.any():
            continue
        if category is ClientCategory.CORPNET:
            conns = failed = None
        else:
            conns = int(connections[mask].sum())
            failed = int(failed_connections[mask].sum())
        rows.append(
            CategorySummary(
                category=category,
                transactions=int(transactions[mask].sum()),
                failed_transactions=int(failures[mask].sum()),
                connections=conns,
                failed_connections=failed,
            )
        )
    return rows


@dataclass(frozen=True)
class TypeBreakdown:
    """Figure 1's bars for one client category."""

    category: ClientCategory
    transactions: int
    dns: int
    tcp: int
    http: int

    @property
    def total_failures(self) -> int:
        """All classified failures."""
        return self.dns + self.tcp + self.http

    @property
    def overall_rate(self) -> float:
        """The underlined number in Figure 1."""
        return self.total_failures / self.transactions if self.transactions else 0.0

    def fraction(self, which: str) -> float:
        """Fraction of failures of a given type ('dns'|'tcp'|'http')."""
        total = self.total_failures
        return getattr(self, which) / total if total else 0.0


@obs.span("classify.failure_type_breakdown")
def failure_type_breakdown(
    dataset: MeasurementDataset,
) -> List[TypeBreakdown]:
    """Figure 1: failure rate by type per category (CN excluded: its
    failures are proxy-masked and cannot be broken down)."""
    transactions = dataset.sums(("transactions",), "c")
    dns = dataset.sums(dataset.DNS_FAILURE_FIELDS, "c")
    tcp = dataset.sums(dataset.TCP_FAILURE_FIELDS, "c")
    http = dataset.sums(("http_errors",), "c")
    rows = []
    for category in ClientCategory:
        if category is ClientCategory.CORPNET:
            continue
        mask = dataset.category_mask(category)
        if not mask.any():
            continue
        rows.append(
            TypeBreakdown(
                category=category,
                transactions=int(transactions[mask].sum()),
                dns=int(dns[mask].sum()),
                tcp=int(tcp[mask].sum()),
                http=int(http[mask].sum()),
            )
        )
    # Evidence trail: the classified totals a run manifest's diff can
    # explain DNS/TCP/HTTP composition shifts with.
    obs.current_span().event(
        "classify.type_totals",
        dns=sum(r.dns for r in rows),
        tcp=sum(r.tcp for r in rows),
        http=sum(r.http for r in rows),
        transactions=sum(r.transactions for r in rows),
    )
    return rows


@dataclass(frozen=True)
class DNSBreakdown:
    """One row of Table 4."""

    category: ClientCategory
    failure_count: int
    ldns_timeout: int
    non_ldns_timeout: int
    error: int

    def fractions(self) -> Tuple[float, float, float]:
        """(ldns, non_ldns, error) fractions of DNS failures."""
        total = max(1, self.failure_count)
        return (
            self.ldns_timeout / total,
            self.non_ldns_timeout / total,
            self.error / total,
        )


@obs.span("classify.dns_breakdown")
def dns_breakdown(dataset: MeasurementDataset) -> List[DNSBreakdown]:
    """Table 4: DNS failure breakdown per category (PL, BB, DU)."""
    per_client = {
        name: dataset.sums((name,), "c") for name in dataset.DNS_FAILURE_FIELDS
    }
    rows = []
    for category in (
        ClientCategory.PLANETLAB,
        ClientCategory.BROADBAND,
        ClientCategory.DIALUP,
    ):
        mask = dataset.category_mask(category)
        if not mask.any():
            continue
        ldns, non_ldns, error = (
            int(per_client[name][mask].sum())
            for name in dataset.DNS_FAILURE_FIELDS
        )
        rows.append(
            DNSBreakdown(
                category=category,
                failure_count=ldns + non_ldns + error,
                ldns_timeout=ldns,
                non_ldns_timeout=non_ldns,
                error=error,
            )
        )
    return rows


@obs.span("classify.dns_domain_contributions")
def dns_domain_contributions(
    dataset: MeasurementDataset,
) -> Dict[str, List[Tuple[str, int]]]:
    """Figure 2: per-website-domain DNS failure counts, per category.

    Returns, for each curve ("all", "ldns_timeout", "non_ldns_timeout",
    "error"), the site contributions sorted descending -- the cumulative
    sum of which is the figure's y-axis.
    """
    curves = {
        "all": dataset.DNS_FAILURE_FIELDS,
        "ldns_timeout": ("dns_ldns",),
        "non_ldns_timeout": ("dns_nonldns",),
        "error": ("dns_error",),
    }
    result: Dict[str, List[Tuple[str, int]]] = {}
    for name, fields in curves.items():
        per_site = dataset.sums(fields, "s")
        pairs = [
            (dataset.world.websites[si].name, int(per_site[si]))
            for si in range(len(per_site))
        ]
        pairs.sort(key=lambda p: p[1], reverse=True)
        result[name] = pairs
    return result


def cumulative_fractions(contributions: List[Tuple[str, int]]) -> List[float]:
    """The cumulative contribution curve for one Figure 2 series."""
    total = sum(count for _, count in contributions)
    if total == 0:
        return []
    out = []
    running = 0
    for _, count in contributions:
        running += count
        out.append(running / total)
    return out


def skewness_top_k(contributions: List[Tuple[str, int]], k: int = 1) -> float:
    """Fraction of failures contributed by the top-k domains.

    LDNS-timeout curves are flat (top-1 ~ 1/80); error curves are skewed
    (brazzil alone ~57%, Section 4.2).
    """
    total = sum(count for _, count in contributions)
    if total == 0:
        return 0.0
    return sum(count for _, count in contributions[:k]) / total


@dataclass(frozen=True)
class TCPBreakdown:
    """Figure 3's bars for one client category."""

    category: ClientCategory
    no_connection: int
    no_response: int
    partial_response: int
    no_or_partial: int

    @property
    def total(self) -> int:
        """All TCP failures."""
        return (
            self.no_connection
            + self.no_response
            + self.partial_response
            + self.no_or_partial
        )

    def fraction(self, which: str) -> float:
        """Fraction of TCP failures in one sub-category."""
        total = self.total
        return getattr(self, which) / total if total else 0.0


@obs.span("classify.tcp_breakdown")
def tcp_breakdown(dataset: MeasurementDataset) -> List[TCPBreakdown]:
    """Figure 3: TCP connection failure breakdown (CN excluded)."""
    per_client = {
        name: dataset.sums((name,), "c") for name in dataset.TCP_FAILURE_FIELDS
    }
    rows = []
    for category in (
        ClientCategory.PLANETLAB,
        ClientCategory.DIALUP,
        ClientCategory.BROADBAND,
    ):
        mask = dataset.category_mask(category)
        if not mask.any():
            continue
        rows.append(
            TCPBreakdown(
                category=category,
                no_connection=int(per_client["tcp_noconn"][mask].sum()),
                no_response=int(per_client["tcp_noresp"][mask].sum()),
                partial_response=int(per_client["tcp_partial"][mask].sum()),
                no_or_partial=int(per_client["tcp_ambiguous"][mask].sum()),
            )
        )
    return rows


@obs.span("classify.loss_correlation")
def packet_loss_failure_correlation(dataset: MeasurementDataset) -> float:
    """Section 4.1.3: correlation between per-pair packet loss rate and
    transaction failure rate (the paper finds a weak r ~ 0.19)."""
    transactions, failures = dataset.pair_month_counts()
    connections = dataset.sums(("connections",), "cs")
    losses = dataset.sums(("packet_losses",), "cs")
    valid = (transactions > 0) & (connections > 0)
    if valid.sum() < 3:
        return float("nan")
    failure_rate = failures[valid] / transactions[valid]
    # Loss per connection as a crude loss-rate proxy, as tcpdump-based
    # post-processing would produce.
    loss_rate = losses[valid] / connections[valid]
    if np.std(failure_rate) == 0 or np.std(loss_rate) == 0:
        return float("nan")
    return float(np.corrcoef(failure_rate, loss_rate)[0, 1])
