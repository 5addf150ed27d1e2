"""Blame attribution (Sections 4.4.1 and 4.4.4).

Given the per-hour episode flags for clients and servers, each TCP
connection-level transaction failure between client C and server S in hour
H is classified:

* **server-side** -- H is a failure episode for S only;
* **client-side** -- H is a failure episode for C only;
* **both**        -- H is a failure episode for both;
* **other**       -- neither (intermittent / pair-specific trouble).

Permanent pairs are excluded first (Section 4.4.2).  Episodes are
identified on *overall* transaction failure rates (Figure 4's CDFs), while
the classified failures are the TCP ones -- this asymmetry is what surfaces
the paper's headline finding: client connectivity problems mostly appear as
DNS failures, so TCP failures skew server-side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from repro import obs

from repro.core.dataset import MeasurementDataset
from repro.core.episodes import RateMatrix, episode_matrix, rate_matrices


@dataclass(frozen=True)
class BlameBreakdown:
    """One row of Table 5."""

    threshold: float
    server_side: int
    client_side: int
    both: int
    other: int

    @property
    def total(self) -> int:
        """All classified TCP failures."""
        return self.server_side + self.client_side + self.both + self.other

    def fractions(self) -> Tuple[float, float, float, float]:
        """(server, client, both, other) fractions."""
        total = max(1, self.total)
        return (
            self.server_side / total,
            self.client_side / total,
            self.both / total,
            self.other / total,
        )

    @property
    def classified_fraction(self) -> float:
        """Fraction of failures attributable to some episode."""
        total = max(1, self.total)
        return (self.server_side + self.client_side + self.both) / total


@dataclass
class BlameAnalysis:
    """Everything downstream sections need: flags, rates, and breakdowns.

    Every array is per entity-hour or per (client, server) pair; the
    analysis keeps no (C, S, H) plane.  ``server_attributed`` is the
    (C, S) month total the spread analysis reads, and there is no
    client-side counterpart because no analysis needs one.
    """

    threshold: float
    client_rates: RateMatrix
    server_rates: RateMatrix
    client_episodes: np.ndarray  # (C, H) bool
    server_episodes: np.ndarray  # (S, H) bool
    breakdown: BlameBreakdown
    #: TCP failures in each server's episode hours, summed over the month
    #: per (C, S): the spread analysis's input.
    server_attributed: np.ndarray  # (C, S) int64
    #: The (C, S) permanent-pair exclusion mask used (None if no exclusion).
    excluded_pairs: Optional[np.ndarray] = None


#: The TCP failure fields every blame sum reduces.
_TCP = MeasurementDataset.TCP_FAILURE_FIELDS


def _classify(
    threshold: float,
    dataset: MeasurementDataset,
    excluded_pairs: Optional[np.ndarray],
    tcp_by_client_hour: np.ndarray,
    client_flags: np.ndarray,
    server_flags: np.ndarray,
) -> BlameBreakdown:
    """Bucket the TCP failures by who was in an episode that hour.

    Every bucket is a sum of per-(client, hour) totals: ``in_server`` is
    the client-hour's failures towards servers in an episode, and the
    rest of the client-hour's failures went to servers that were not.
    The client's own flag then picks the bucket, so no (C, S, H)
    product is ever formed and the integer sums are exact.
    """
    in_server = dataset.sums(_TCP, "ch", excluded_pairs, server_flags)
    elsewhere = tcp_by_client_hour - in_server
    server_only = int(in_server[~client_flags].sum())
    both = int(in_server[client_flags].sum())
    client_only = int(elsewhere[client_flags].sum())
    other = int(elsewhere[~client_flags].sum())

    registry = obs.registry()
    threshold_label = f"{threshold:g}"
    for side, count in (
        ("server", server_only), ("client", client_only),
        ("both", both), ("other", other),
    ):
        registry.gauge(
            "blame_attributed_failures", side=side, threshold=threshold_label
        ).set(count)
    # Evidence trail: the verdict counts plus which entities were in an
    # episode at all (the facts `repro runs diff` explains churn with).
    obs.current_span().event(
        "blame.verdicts",
        threshold=threshold,
        server_side=server_only, client_side=client_only,
        both=both, other=other,
        clients_flagged=int(client_flags.any(axis=1).sum()),
        servers_flagged=int(server_flags.any(axis=1).sum()),
    )
    return BlameBreakdown(
        threshold=threshold,
        server_side=server_only,
        client_side=client_only,
        both=both,
        other=other,
    )


@obs.span("blame.run")
def run_blame_analysis(
    dataset: MeasurementDataset,
    threshold: float = 0.05,
    excluded_pairs: Optional[np.ndarray] = None,
) -> BlameAnalysis:
    """The full Section 4.4 pipeline for one threshold setting.

    ``excluded_pairs`` is the (C, S) permanent-pair mask; when None, no
    exclusion is applied.
    """
    client_rates, server_rates = rate_matrices(dataset, excluded_pairs)
    client_flags = episode_matrix(client_rates, threshold)
    server_flags = episode_matrix(server_rates, threshold)
    breakdown = _classify(
        threshold, dataset, excluded_pairs,
        dataset.sums(_TCP, "ch", excluded_pairs), client_flags, server_flags,
    )
    obs.current_span().set(
        threshold=threshold, server_side=breakdown.server_side,
        client_side=breakdown.client_side, both=breakdown.both,
        other=breakdown.other,
    )
    return BlameAnalysis(
        threshold=threshold,
        client_rates=client_rates,
        server_rates=server_rates,
        client_episodes=client_flags,
        server_episodes=server_flags,
        breakdown=breakdown,
        server_attributed=dataset.sums(
            _TCP, "cs", excluded_pairs, server_flags
        ),
        excluded_pairs=excluded_pairs,
    )


@obs.span("blame.table")
def blame_table(
    dataset: MeasurementDataset,
    thresholds: Tuple[float, ...] = (0.05, 0.10),
    excluded_pairs: Optional[np.ndarray] = None,
) -> Tuple[BlameBreakdown, ...]:
    """Table 5: the breakdown at each threshold setting.

    The rate matrices and the per-client-hour TCP sums do not depend on
    f, so they are built once and only the episode flags are recomputed
    per threshold.
    """
    client_rates, server_rates = rate_matrices(dataset, excluded_pairs)
    tcp_by_client_hour = dataset.sums(_TCP, "ch", excluded_pairs)
    return tuple(
        _classify(
            f, dataset, excluded_pairs, tcp_by_client_hour,
            episode_matrix(client_rates, f), episode_matrix(server_rates, f),
        )
        for f in thresholds
    )
