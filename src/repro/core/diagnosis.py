"""Permanent-pair diagnosis -- the investigation Section 4.4.2 defers.

The paper identifies 38 near-permanently failing pairs and eyeballs a few
(northwestern<->mp3.com's checksum corruption; several PL sites blocked
from Chinese websites), deferring "a more detailed investigation ... to
future work."  This module automates that triage from the observations:

* **failure signature** -- the dominant TCP failure kind of the pair
  (all-no-connection looks like filtering/blocking; all-partial-response
  looks like on-path corruption or an aborting middlebox);
* **asymmetry check** -- whether the client communicates fine with other
  servers and the server with other clients (isolating the problem to the
  *pair*, the paper's observation for northwestern<->mp3.com);
* **co-blocked grouping** -- clients broken to the same server, and
  servers broken for the same client (the paper's "certain websites are
  being blocked at particular client sites" pattern).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.dataset import MeasurementDataset
from repro.core.permanent import PermanentPair, PermanentPairReport


class PermanentFailureMode(enum.Enum):
    """Triage verdicts for a permanently failing pair."""

    #: SYNs never answered: filtering, blackholing, or blocking.
    BLOCKED = "blocked"
    #: Transfers start but die: corruption or an aborting middlebox.
    CORRUPTED_TRANSFER = "corrupted_transfer"
    #: Connections establish but no response: application-level refusal.
    SILENT_SERVICE = "silent_service"
    #: Name never resolves for this client: DNS-level blocking.
    DNS_DENIED = "dns_denied"
    #: No dominant signature.
    MIXED = "mixed"


@dataclass
class PairDiagnosis:
    """The triage result for one permanent pair."""

    pair: PermanentPair
    mode: PermanentFailureMode
    #: Failure-kind shares (noconn, noresp, partial, dns) among failures.
    signature: Dict[str, float]
    #: This client's failure rate to every *other* server.
    client_elsewhere_rate: float
    #: This server's failure rate from every *other* client.
    server_elsewhere_rate: float

    @property
    def pair_specific(self) -> bool:
        """True when both endpoints are healthy elsewhere -- the problem
        lives strictly between them (the northwestern<->mp3.com shape)."""
        return self.client_elsewhere_rate < 0.1 and self.server_elsewhere_rate < 0.1


def diagnose_pair(
    dataset: MeasurementDataset, pair: PermanentPair
) -> PairDiagnosis:
    """Triage one permanent pair from the dataset's observations."""
    ci = dataset.world.client_idx(pair.client_name)
    si = dataset.world.site_idx(pair.site_name)

    noconn = int(dataset.tcp_noconn[ci, si].sum())
    noresp = int(dataset.tcp_noresp[ci, si].sum())
    partial = int(
        dataset.tcp_partial[ci, si].sum() + dataset.tcp_ambiguous[ci, si].sum()
    )
    dns = dataset.total(dataset.DNS_FAILURE_FIELDS, (ci, si))
    total = max(1, noconn + noresp + partial + dns)
    signature = {
        "no_connection": noconn / total,
        "no_response": noresp / total,
        "partial_response": partial / total,
        "dns": dns / total,
    }

    if signature["no_connection"] > 0.7:
        mode = PermanentFailureMode.BLOCKED
    elif signature["partial_response"] > 0.7:
        mode = PermanentFailureMode.CORRUPTED_TRANSFER
    elif signature["no_response"] > 0.7:
        mode = PermanentFailureMode.SILENT_SERVICE
    elif signature["dns"] > 0.7:
        mode = PermanentFailureMode.DNS_DENIED
    else:
        mode = PermanentFailureMode.MIXED

    # Asymmetry: how each endpoint fares with everyone else.  Failure
    # totals are summed field by field over each slice, so a pair's
    # triage never builds the whole (C, S, H) failures plane.
    pair_trans = int(dataset.transactions[ci, si].sum())
    pair_fails = dataset.total(dataset.FAILURE_FIELDS, (ci, si))
    client_trans = int(dataset.transactions[ci].sum()) - pair_trans
    client_fails = dataset.total(dataset.FAILURE_FIELDS, ci) - pair_fails
    server_trans = int(dataset.transactions[:, si].sum()) - pair_trans
    server_fails = (
        dataset.total(dataset.FAILURE_FIELDS, (slice(None), si)) - pair_fails
    )
    return PairDiagnosis(
        pair=pair,
        mode=mode,
        signature=signature,
        client_elsewhere_rate=client_fails / max(1, client_trans),
        server_elsewhere_rate=server_fails / max(1, server_trans),
    )


@dataclass
class PermanentFailureInvestigation:
    """The full Section 4.4.2 follow-up."""

    diagnoses: List[PairDiagnosis]

    def by_mode(self) -> Dict[PermanentFailureMode, List[PairDiagnosis]]:
        """Group diagnoses by failure mode."""
        groups: Dict[PermanentFailureMode, List[PairDiagnosis]] = {}
        for diagnosis in self.diagnoses:
            groups.setdefault(diagnosis.mode, []).append(diagnosis)
        return groups

    def blocked_site_groups(self, min_clients: int = 3) -> Dict[str, List[str]]:
        """Servers blocked for several clients -- the censorship pattern.

        Returns ``site -> [client, ...]`` for sites with at least
        ``min_clients`` blocked clients.
        """
        groups: Dict[str, List[str]] = {}
        for diagnosis in self.diagnoses:
            if diagnosis.mode is PermanentFailureMode.BLOCKED:
                groups.setdefault(diagnosis.pair.site_name, []).append(
                    diagnosis.pair.client_name
                )
        return {
            site: sorted(clients)
            for site, clients in groups.items()
            if len(clients) >= min_clients
        }

    def pair_specific_cases(self) -> List[PairDiagnosis]:
        """Strictly pairwise problems (healthy endpoints elsewhere)."""
        return [d for d in self.diagnoses if d.pair_specific]

    def summary(self) -> str:
        """A readable investigation report."""
        lines = [f"{len(self.diagnoses)} permanent pairs diagnosed"]
        for mode, group in sorted(
            self.by_mode().items(), key=lambda kv: -len(kv[1])
        ):
            lines.append(f"  {mode.value}: {len(group)}")
        blocked = self.blocked_site_groups()
        if blocked:
            lines.append("widely-blocked sites:")
            for site, clients in sorted(
                blocked.items(), key=lambda kv: -len(kv[1])
            ):
                lines.append(f"  {site}: {len(clients)} clients")
        return "\n".join(lines)


def investigate_permanent_failures(
    dataset: MeasurementDataset, report: PermanentPairReport
) -> PermanentFailureInvestigation:
    """Diagnose every permanent pair in a Section 4.4.2 report."""
    return PermanentFailureInvestigation(
        diagnoses=[diagnose_pair(dataset, pair) for pair in report.pairs]
    )
