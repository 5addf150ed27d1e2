"""Failure episode identification (Section 4.4.3).

An *episode* is a 1-hour period; a *failure episode* for an entity (client
or server) is an episode in which the entity's aggregate failure rate is
abnormally high.  "Abnormally high" is determined by locating the knee of
the CDF of per-episode failure rates across the whole system (Figure 4)
rather than by an arbitrary threshold; the paper lands on f = 5% with a
more conservative f = 10% variant.

This module computes the rate matrices, the CDFs, an automatic knee
detector, the boolean episode matrices, and episode coalescing (the
Section 4.4.5 duration statistics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from repro import obs

from repro.core import knee as knee_mod
from repro.core import quantiles
from repro.core.dataset import MIN_SAMPLES_PER_HOUR, MeasurementDataset


@dataclass(frozen=True)
class RateMatrix:
    """Per-entity-per-hour failure rates with sample-count validity."""

    rates: np.ndarray  # (N, H), NaN where too few samples
    transactions: np.ndarray  # (N, H)
    #: (N, H) failure counts, the rates' numerators (None when the
    #: matrix was built from rates alone).
    failures: Optional[np.ndarray] = None

    @property
    def valid(self) -> np.ndarray:
        """Boolean matrix: enough samples for a meaningful rate."""
        return ~np.isnan(self.rates)

    def flatten_valid(self) -> np.ndarray:
        """All valid rates, flattened (the Figure 4 sample set)."""
        return self.rates[self.valid]


@obs.span("episodes.client_rate_matrix")
def client_rate_matrix(
    dataset: MeasurementDataset,
    min_samples: int = MIN_SAMPLES_PER_HOUR,
    excluded_pairs: Optional[np.ndarray] = None,
) -> RateMatrix:
    """Per-client-hour failure rates, aggregated over all servers.

    ``excluded_pairs`` is a (C, S) pair mask (the permanent pairs) left
    out of the counts.
    """
    return _entity_hour_rates(dataset, "ch", min_samples, excluded_pairs)


@obs.span("episodes.server_rate_matrix")
def server_rate_matrix(
    dataset: MeasurementDataset,
    min_samples: int = MIN_SAMPLES_PER_HOUR,
    excluded_pairs: Optional[np.ndarray] = None,
) -> RateMatrix:
    """Per-server-hour failure rates, aggregated over all clients."""
    return _entity_hour_rates(dataset, "sh", min_samples, excluded_pairs)


def _entity_hour_rates(
    dataset: MeasurementDataset,
    axes: str,
    min_samples: int,
    excluded_pairs: Optional[np.ndarray],
) -> RateMatrix:
    """Rates per entity-hour for ``axes`` "ch"/"sh", each count field
    reduced straight to those axes."""
    return _rates(
        dataset.sums(("transactions",), axes, excluded_pairs),
        dataset.sums(dataset.FAILURE_FIELDS, axes, excluded_pairs),
        min_samples,
    )


def rate_matrices(
    dataset: MeasurementDataset, excluded_pairs: Optional[np.ndarray] = None
) -> Tuple[RateMatrix, RateMatrix]:
    """The (client, server) rate matrices, ``excluded_pairs`` (the (C, S)
    permanent-pair mask) left out.  Each side reduces the count fields
    straight to its entity-hours, so no (C, S, H) plane is built."""
    return (
        client_rate_matrix(dataset, excluded_pairs=excluded_pairs),
        server_rate_matrix(dataset, excluded_pairs=excluded_pairs),
    )


def _rates(trans: np.ndarray, fails: np.ndarray, min_samples: int) -> RateMatrix:
    rates = np.full(trans.shape, np.nan, dtype=float)
    enough = trans >= min_samples
    rates[enough] = fails[enough] / trans[enough]
    return RateMatrix(rates=rates, transactions=trans, failures=fails)


# --------------------------------------------------------------------------
# CDF and knee detection
# --------------------------------------------------------------------------


def rate_cdf(matrix: RateMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """The empirical CDF of valid per-episode rates (Figure 4's curves).

    Returns (sorted_rates, cdf_values).
    """
    samples = np.sort(matrix.flatten_valid())
    if samples.size == 0:
        return np.array([]), np.array([])
    cdf = np.arange(1, samples.size + 1) / samples.size
    return samples, cdf


@obs.span("episodes.detect_knee")
def detect_knee(
    matrix: RateMatrix,
    candidate_range: Tuple[float, float] = (0.01, 0.30),
) -> float:
    """Locate the knee of the rate CDF.

    The paper identifies "the distinct knee in each CDF that separates the
    low failure rates (the 'normal' range) ... from the wide range of
    significantly higher failure rates".  The construction itself lives in
    :mod:`repro.core.knee` (maximum perpendicular distance from the chord
    of the CDF restricted to the candidate range -- "kneedle"), shared
    with the online detector so both land on the identical threshold for
    the same rates.
    """
    samples = np.sort(matrix.flatten_valid())
    if samples.size == 0:
        raise ValueError("no valid episode rates to detect a knee in")
    start, stop = knee_mod.window(samples, candidate_range)
    knee = knee_mod.knee_of_sorted(samples, candidate_range)
    fallback = knee is None
    if fallback:
        # Degenerate (nearly failure-free) data: fall back to the paper's f.
        knee = knee_mod.FALLBACK_THRESHOLD
    # The evidence trail: the knee f, how many episode-rate samples the
    # CDF had, and how many sat in the candidate window.
    obs.current_span().event(
        "episodes.knee", f=round(knee, 6), samples=int(samples.size),
        in_window=stop - start, fallback=fallback,
    )
    return knee


# --------------------------------------------------------------------------
# Episode flags and coalescing
# --------------------------------------------------------------------------


def episode_matrix(matrix: RateMatrix, threshold: float) -> np.ndarray:
    """Boolean (N, H): entity-hours whose failure rate >= threshold."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold out of range: {threshold}")
    flags = np.zeros(matrix.rates.shape, dtype=bool)
    valid = matrix.valid
    flags[valid] = matrix.rates[valid] >= threshold
    return flags


@dataclass(frozen=True)
class CoalescedEpisode:
    """A maximal run of consecutive failure-episode hours for one entity."""

    entity_index: int
    start_hour: int
    end_hour: int  # inclusive

    @property
    def duration_hours(self) -> int:
        """Length of the run in hours."""
        return self.end_hour - self.start_hour + 1


@obs.span("episodes.coalesce")
def coalesce_episodes(flags: np.ndarray) -> List[CoalescedEpisode]:
    """Merge consecutive episode-hours per entity (Section 4.4.5)."""
    episodes: List[CoalescedEpisode] = []
    n, h = flags.shape
    for i in range(n):
        row = flags[i]
        start = None
        for hour in range(h):
            if row[hour] and start is None:
                start = hour
            elif not row[hour] and start is not None:
                episodes.append(CoalescedEpisode(i, start, hour - 1))
                start = None
        if start is not None:
            episodes.append(CoalescedEpisode(i, start, h - 1))
    return episodes


@dataclass(frozen=True)
class EpisodeStats:
    """Summary of episode structure (the Section 4.4.5 numbers)."""

    total_episode_hours: int
    coalesced_count: int
    mean_duration: float
    median_duration: float
    max_duration: int
    entities_with_any: int
    entities_with_multiple: int


@obs.span("episodes.stats")
def episode_stats(flags: np.ndarray) -> EpisodeStats:
    """Compute the Section 4.4.5 duration/spread statistics."""
    coalesced = coalesce_episodes(flags)
    durations = [e.duration_hours for e in coalesced]
    per_entity = flags.any(axis=1)
    multiple = np.zeros(flags.shape[0], dtype=bool)
    counts: dict = {}
    for episode in coalesced:
        counts[episode.entity_index] = counts.get(episode.entity_index, 0) + 1
    for idx, count in counts.items():
        if count > 1 or flags[idx].sum() > 1:
            multiple[idx] = True
    return EpisodeStats(
        total_episode_hours=int(flags.sum()),
        coalesced_count=len(coalesced),
        mean_duration=float(np.mean(durations)) if durations else 0.0,
        median_duration=quantiles.median(durations) if durations else 0.0,
        max_duration=int(np.max(durations)) if durations else 0,
        entities_with_any=int(per_entity.sum()),
        entities_with_multiple=int(multiple.sum()),
    )
