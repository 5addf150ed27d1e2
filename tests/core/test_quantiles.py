"""The numpy.ma-free median and percentile equal numpy's, bit for bit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import quantiles

_VALUES = st.lists(
    st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, -0.0, float("nan")]),
    ),
    min_size=0, max_size=60,
)


def _same(ours: float, theirs) -> bool:
    """Bit-identical, except that -0.0 and 0.0 tie (see the module)."""
    theirs = float(theirs)
    if math.isnan(theirs):
        return math.isnan(ours)
    if theirs == 0.0:
        return ours == 0.0
    return ours.hex() == theirs.hex()


def _numpy(func, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return func(*args)


@settings(max_examples=300, deadline=None)
@given(values=_VALUES)
def test_median_matches_nanmedian(values):
    array = np.array(values, dtype=np.float64)
    assert _same(quantiles.median(array), _numpy(np.nanmedian, array))


@settings(max_examples=300, deadline=None)
@given(
    values=_VALUES,
    p=st.one_of(
        st.sampled_from([0, 1, 5, 25, 50, 75, 90, 95, 99, 100]),
        st.floats(0.0, 100.0),
    ),
)
def test_percentile_matches_nanpercentile(values, p):
    array = np.array(values, dtype=np.float64)
    assert _same(
        quantiles.percentile(array, p), _numpy(np.nanpercentile, array, p)
    )


@given(values=st.lists(st.integers(0, 10**6), min_size=1, max_size=40))
def test_median_of_integers_matches_numpy(values):
    assert _same(quantiles.median(values), np.median(values))


@pytest.mark.parametrize("func", [quantiles.median, quantiles.percentile])
def test_empty_and_all_nan_are_nan(func):
    args = (50,) if func is quantiles.percentile else ()
    assert math.isnan(func(np.array([]), *args))
    assert math.isnan(func(np.array([np.nan, np.nan]), *args))
