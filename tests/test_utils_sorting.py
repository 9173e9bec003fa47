"""``sorted_unique`` must be indistinguishable from plain ``np.unique``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils import sorted_unique

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64, np.bool_]


def assert_same(a) -> None:
    got, want = sorted_unique(a), np.unique(a)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    dtype=st.sampled_from(INT_DTYPES),
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=40),
    narrow=st.booleans(),
)
def test_matches_np_unique_on_integers(data, dtype, shape, narrow):
    """Any integer dtype, 1-D or 2-D, full range or a duplicate-heavy narrow one."""
    info = None if dtype is np.bool_ else np.iinfo(dtype)
    elements = None
    if info is not None and narrow:
        elements = st.integers(max(info.min, -3), min(info.max, 3))
    a = data.draw(hnp.arrays(dtype, shape, elements=elements))
    assert_same(a)
    assert_same(a[::2])  # non-contiguous view
    assert_same(np.sort(a, axis=None))  # already sorted


@pytest.mark.parametrize("dtype", INT_DTYPES)
def test_edge_shapes(dtype):
    assert_same(np.zeros(0, dtype=dtype))
    assert_same(np.ones(1, dtype=dtype))
    assert_same(np.ones(17, dtype=dtype))  # all equal
    assert_same(np.zeros((0, 3), dtype=dtype))
    assert_same(np.asarray(1, dtype=dtype))  # 0-d


def test_extremes_and_negatives():
    for dtype in (np.int8, np.int64):
        info = np.iinfo(dtype)
        assert_same(np.asarray([info.max, info.min, -1, 0, info.min, info.max, -1], dtype=dtype))
    assert_same(np.asarray([2**64 - 1, 0, 2**63, 2**64 - 1], dtype=np.uint64))


def test_result_does_not_alias_input():
    a = np.asarray([3, 1, 2], dtype=np.int64)
    out = sorted_unique(a)
    out[:] = 0
    np.testing.assert_array_equal(a, [3, 1, 2])


def test_accepts_lists():
    assert_same([3, 1, 3, 2])
    assert_same([])  # float64, like np.unique


def test_floats_delegate_to_np_unique():
    """Non-integer input is handed to np.unique: NaNs collapse to one."""
    a = np.asarray([np.nan, 1.5, -0.0, 0.0, np.nan, 1.5, np.inf])
    got, want = sorted_unique(a), np.unique(a)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert np.count_nonzero(np.isnan(got)) == 1
