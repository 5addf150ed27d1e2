"""The shared CDF-knee ("kneedle") construction.

The paper locates "the distinct knee in each CDF that separates the low
failure rates (the 'normal' range) ... from the wide range of
significantly higher failure rates" (Section 4.4.3, Figure 4).  Two
consumers need the identical construction:

* the batch analysis (:func:`repro.core.episodes.detect_knee`), and
* the online detector (:mod:`repro.obs.online.detector`), whose
  per-side thresholds are also what the live dashboard and the
  ``alert_episode_threshold`` gauge show, and whose end-of-run verdicts
  must match the batch analysis *bit for bit*.

That exact-match requirement is why there is one kernel,
:func:`knee_of_sorted`, over a float64 array.  Every step is one
correctly rounded IEEE-754 operation per element -- the CDF heights are
int / int divisions of values below 2**53, and the distances are
separate multiply, subtract, ``abs`` and divide ufuncs, never fused --
so the kernel lands on the same knee as the scalar loop it replaced,
for any caller that feeds it the same rates.  The chord's norm stays a
Python scalar, and ``argmax`` keeps the first maximum, as that loop did.

This module imports no other ``repro`` module: :mod:`repro.core`
imports :mod:`repro.obs`, and the obs layers must be able to use the
knee without creating a cycle.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

#: Candidate rate window the knee is searched in -- rates below are
#: clearly "normal", rates above are clearly episodes (the paper's
#: Figure 4 x-range of interest).
DEFAULT_CANDIDATE_RANGE = (0.01, 0.30)

#: The paper's fallback threshold f when the CDF is too degenerate for
#: a knee (Section 4.4.3 lands on f = 5%).
FALLBACK_THRESHOLD = 0.05

#: Minimum CDF points inside the candidate window for a knee to be
#: meaningful; below this callers fall back to
#: :data:`FALLBACK_THRESHOLD`.
MIN_WINDOW_POINTS = 3


def window(
    sorted_samples: np.ndarray,
    candidate_range: Tuple[float, float] = DEFAULT_CANDIDATE_RANGE,
) -> Tuple[int, int]:
    """``[start, stop)`` of the ascending samples inside the window
    (both bounds inclusive), located by binary search."""
    lo, hi = candidate_range
    return (
        int(np.searchsorted(sorted_samples, lo, side="left")),
        int(np.searchsorted(sorted_samples, hi, side="right")),
    )


def knee_of_sorted(
    sorted_samples: Sequence[float],
    candidate_range: Tuple[float, float] = DEFAULT_CANDIDATE_RANGE,
) -> Optional[float]:
    """The knee of an ascending sample sequence's CDF, or ``None``.

    The empirical CDF's points inside the candidate window are
    ``(x_i, (i + 1) / n)`` over the *full* sample count ``n``, exactly
    as :func:`repro.core.episodes.rate_cdf` computes them.  The knee is
    the point farthest from the chord between the window's first and
    last point; a window of one repeated value lands on that value.
    The cost is proportional to the window, not the sample count.

    ``None`` means "too degenerate to call": fewer than
    :data:`MIN_WINDOW_POINTS` samples fall inside the window.  Callers
    substitute :data:`FALLBACK_THRESHOLD`.
    """
    samples = np.asarray(sorted_samples, dtype=np.float64)
    start, stop = window(samples, candidate_range)
    if stop - start < MIN_WINDOW_POINTS:
        return None
    n = samples.size
    x = samples[start:stop]
    y = np.arange(start + 1, stop + 1) / n
    x0, y0 = float(x[0]), (start + 1) / n
    dx, dy = float(x[-1]) - x0, stop / n - y0
    # Positive: at least MIN_WINDOW_POINTS distinct CDF heights make
    # ``dy`` positive even when every x in the window is equal.
    norm = (dx * dx + dy * dy) ** 0.5
    distance = np.abs(dy * (x - x0) - dx * (y - y0)) / norm
    return float(x[int(np.argmax(distance))])


def knee_of_cdf(
    samples: Sequence[float],
    candidate_range: Tuple[float, float] = DEFAULT_CANDIDATE_RANGE,
) -> Optional[float]:
    """Convenience wrapper over unsorted samples (sorts a copy)."""
    return knee_of_sorted(
        np.sort(np.asarray(samples, dtype=np.float64)), candidate_range
    )
