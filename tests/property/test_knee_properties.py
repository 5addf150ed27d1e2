"""The numpy knee kernel equals the scalar construction it replaced.

``reference_knee`` below is the pure-Python CDF-points + kneedle loop
the project used before :func:`repro.core.knee.knee_of_sorted` became
one numpy kernel.  Both must land on the same float, bit for bit, on
the inputs the detector and the batch analysis actually see: rates that
are small-integer ratios (so they repeat heavily), values sitting
exactly on the window bounds, windows too thin for a knee, and windows
of one repeated value (a chord with no width).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import knee as knee_mod
from repro.obs.online.detector import _SideState

LO, HI = knee_mod.DEFAULT_CANDIDATE_RANGE


def reference_cdf_points(sorted_samples, candidate_range=(LO, HI)):
    n = len(sorted_samples)
    if n == 0:
        return []
    lo, hi = candidate_range
    start = bisect_left(sorted_samples, lo)
    stop = bisect_right(sorted_samples, hi)
    return [
        (float(sorted_samples[i]), (i + 1) / n) for i in range(start, stop)
    ]


def reference_knee_of_points(points):
    x0, y0 = points[0]
    x1, y1 = points[-1]
    dx, dy = x1 - x0, y1 - y0
    norm = (dx * dx + dy * dy) ** 0.5
    if norm == 0:
        return float(x0)
    best_x, best_d = x0, -1.0
    for x, y in points:
        distance = abs(dy * (x - x0) - dx * (y - y0)) / norm
        if distance > best_d:
            best_x, best_d = x, distance
    return float(best_x)


def reference_knee(sorted_samples):
    points = reference_cdf_points(sorted_samples)
    if len(points) < knee_mod.MIN_WINDOW_POINTS:
        return None
    return reference_knee_of_points(points)


#: Failure rates as the detector computes them: failures / transactions
#: of a valid entity-hour (at least 10 transactions).
ratios = st.integers(10, 60).flatmap(
    lambda t: st.integers(0, t).map(lambda f: f / t)
)

#: The window bounds themselves and their float neighbours.
bounds = st.sampled_from([
    LO, HI, np.nextafter(LO, 0.0), np.nextafter(LO, 1.0),
    np.nextafter(HI, 0.0), np.nextafter(HI, 1.0),
])

#: Multisets over a handful of distinct values: heavy repeats.
samples = st.lists(st.one_of(ratios, bounds), min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=300)
)


def _assert_same_knee(values):
    ordered = sorted(float(v) for v in values)
    expected = reference_knee(ordered)
    got = knee_mod.knee_of_sorted(np.array(ordered, dtype=np.float64))
    assert got == expected
    assert knee_mod.knee_of_sorted(ordered) == expected
    if got is not None:
        assert type(got) is float


@given(samples)
@settings(max_examples=400, deadline=None)
@example([0.01, 0.30, 0.30, 0.01, 0.05])
@example([0.02, 0.021, 0.5, 0.9])  # two points in the window
@example([0.02] * 100)  # one repeated value: a chord with no width
@example([0.0] * 50 + [0.1] * 3 + [1.0] * 5)
def test_kernel_matches_the_scalar_construction(values):
    _assert_same_knee(values)


@given(
    st.lists(ratios, max_size=2),
    st.lists(st.sampled_from([0.0, 0.005, 0.5, 1.0]), max_size=50),
)
@settings(max_examples=100, deadline=None)
def test_thin_windows_have_no_knee(inside, outside):
    in_window = [v for v in inside if LO <= v <= HI]
    values = sorted(in_window + outside)
    assert knee_mod.knee_of_sorted(np.array(values)) is None
    assert reference_knee(values) is None


@given(st.sampled_from([LO, 0.05, HI]), st.integers(3, 40), samples)
@settings(max_examples=100, deadline=None)
def test_all_equal_window_lands_on_its_value(value, copies, others):
    outside = [v for v in others if not LO <= v <= HI]
    values = sorted(outside + [value] * copies)
    assert knee_mod.knee_of_sorted(np.array(values)) == value
    assert reference_knee(values) == value


hours_of_rates = st.lists(
    st.lists(st.one_of(ratios, st.just(float("nan"))), min_size=3,
             max_size=3),
    min_size=1, max_size=30,
)


@given(hours_of_rates, st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_side_sample_tracks_the_retained_rates(hours, window):
    """The detector's sorted sample, kept by insert and evict, always
    equals the sorted valid rates of the retained hours."""
    state = _SideState("client")
    for hour, rates in enumerate(hours):
        state.add_hour(hour, np.array(rates))
        state.evict_before(hour - window + 1)
        retained = [
            r for h in range(max(0, hour - window + 1), hour + 1)
            for r in hours[h] if r == r
        ]
        assert state.sorted_rates.tolist() == sorted(retained)
        assert list(state.by_hour) == list(
            range(max(0, hour - window + 1), hour + 1)
        )
