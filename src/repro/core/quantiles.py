"""Medians and percentiles without ``numpy.ma``.

``np.median``, ``np.percentile`` and their ``nan`` variants import
``numpy.ma`` on first call (the median's NaN check asks
``np.ma.isMaskedArray``): ~11 ms and ~2 MB in every process that
prints a report.  These two functions give the same float64 results,
bit for bit, as numpy's ``nanmedian`` and its default ("linear")
``nanpercentile`` on 1-D data: NaN values are skipped, and an empty or
all-NaN input gives NaN.  The one exception is the sign of a zero:
numpy selects order statistics with an unstable partition, which may
put ``-0.0`` or ``0.0`` at an index where the two tie.
"""

from __future__ import annotations

import math

import numpy as np


def _sorted_values(values) -> np.ndarray:
    """The non-NaN values as a sorted float64 vector."""
    data = np.asarray(values, dtype=np.float64).ravel()
    data = data[~np.isnan(data)]
    data.sort()
    return data


def median(values) -> float:
    """``np.nanmedian(values)``: the middle value, or the mean of the
    two middle values, computed as numpy's ``mean`` does."""
    data = _sorted_values(values)
    n = data.size
    if n == 0:
        return math.nan
    half = n // 2
    if n % 2:
        return float(data[half])
    return float((data[half - 1] + data[half]) / 2)


def percentile(values, p: float) -> float:
    """``np.nanpercentile(values, p)`` with the default linear method:
    the virtual index ``(n - 1) * p / 100`` interpolated between its
    neighbours exactly as numpy's ``_lerp`` does."""
    data = _sorted_values(values)
    n = data.size
    if n == 0:
        return math.nan
    virtual = (n - 1) * (p / 100)
    if virtual >= n - 1:
        below = above = -1  # numpy's clamp, which its gamma also reads
    else:
        below = math.floor(virtual)
        above = below + 1
    gamma = virtual - below
    lo, hi = data[below], data[above]
    diff = hi - lo
    if gamma >= 0.5:
        return float(hi - diff * (1 - gamma))
    return float(lo + diff * gamma)
