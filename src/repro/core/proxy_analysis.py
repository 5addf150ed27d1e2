"""Shared proxy-related failures (Section 4.7).

With one CN client per proxy, proxy-specific problems cannot be separated
from client-side ones per proxy -- but problems *shared across all five
proxies* can be surfaced: filter out failures attributable to server-side
episodes (for the site) and client-side episodes (for each client), then
compare the residual per-site failure rate of proxied clients against
direct clients.  A residual rate that is high for every proxied client but
low for SEAEXT (same WAN, no proxy) and for non-CN clients indicts the
proxies' shared behaviour -- in the paper, the lack of A-record failover
(www.iitb.ac.in) and an unexplained case (www.royal.gov.uk).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.blame import BlameAnalysis
from repro.core.dataset import MeasurementDataset
from repro.world.entities import ClientCategory


@dataclass(frozen=True)
class ResidualRate:
    """Residual failure rate of one client group for one site."""

    label: str
    transactions: int
    failures: int

    @property
    def rate(self) -> float:
        """Residual failure rate."""
        return self.failures / self.transactions if self.transactions else 0.0


@dataclass
class ProxyFailureRow:
    """One Table 9 row: residual rates per CN client plus controls."""

    site_name: str
    per_client: Dict[str, ResidualRate]
    external: ResidualRate
    non_cn: ResidualRate

    def proxied_rates(self) -> List[float]:
        """Residual rates of the proxied clients."""
        return [r.rate for r in self.per_client.values()]

    @property
    def is_shared_proxy_problem(self) -> bool:
        """Heuristic: every proxied client's residual rate is well above
        both the external client's and the non-CN control's."""
        rates = self.proxied_rates()
        if not rates:
            return False
        floor = max(self.external.rate, self.non_cn.rate)
        return min(rates) > max(0.02, 2.0 * floor)


def residual_failure_table(
    dataset: MeasurementDataset,
    analysis: BlameAnalysis,
    site_names: List[str],
) -> List[ProxyFailureRow]:
    """Build Table 9 for the given sites.

    For each site: drop the hours flagged as server-side episodes for it;
    for each client additionally drop that client's client-side episode
    hours; report the residual failure rate.
    """
    world = dataset.world
    rows = []
    cn_clients = [
        c for c in world.clients if c.category is ClientCategory.CORPNET and c.proxied
    ]
    external = [
        c for c in world.clients
        if c.category is ClientCategory.CORPNET and not c.proxied
    ]
    non_cn = [
        c for c in world.clients if c.category is not ClientCategory.CORPNET
    ]

    for site_name in site_names:
        si = world.site_idx(site_name)
        server_ok = ~analysis.server_episodes[si]  # (H,)

        def residual(clients, label) -> ResidualRate:
            trans = 0
            fails = 0
            for client in clients:
                ci = world.client_idx(client.name)
                client_ok = ~analysis.client_episodes[ci]
                keep = server_ok & client_ok
                index = (ci, si, keep)
                trans += dataset.total(("transactions",), index)
                fails += dataset.total(dataset.FAILURE_FIELDS, index)
            return ResidualRate(label=label, transactions=trans, failures=fails)

        rows.append(
            ProxyFailureRow(
                site_name=site_name,
                per_client={
                    c.name: residual([c], c.name) for c in cn_clients
                },
                external=residual(external, "SEAEXT"),
                non_cn=residual(non_cn, "non-CN"),
            )
        )
    return rows


def find_shared_proxy_problems(
    dataset: MeasurementDataset,
    analysis: BlameAnalysis,
    min_transactions: int = 100,
) -> List[ProxyFailureRow]:
    """Scan every site for the shared-proxy-failure signature.

    This is the discovery step the paper performs before zooming in on
    iitb and royal; returns the flagged rows sorted by the minimum proxied
    residual rate.
    """
    candidates = residual_failure_table(
        dataset, analysis, [w.name for w in dataset.world.websites]
    )
    flagged = [
        row
        for row in candidates
        if row.is_shared_proxy_problem
        and all(r.transactions >= min_transactions for r in row.per_client.values())
    ]
    flagged.sort(key=lambda row: min(row.proxied_rates()), reverse=True)
    return flagged
