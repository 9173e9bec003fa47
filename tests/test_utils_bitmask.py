"""Unit and property tests for the packed bitmask."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bitmask import Bitmask


class TestBasics:
    def test_empty_mask_has_no_bits_set(self):
        mask = Bitmask(100)
        assert mask.count() == 0
        assert mask.to_indices().size == 0

    def test_zero_size_mask(self):
        mask = Bitmask(0)
        assert mask.count() == 0
        assert mask.to_indices().size == 0
        assert mask.nbytes == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Bitmask(-1)

    def test_set_and_test_single_bits(self):
        mask = Bitmask(20)
        for bit in (0, 7, 19):
            mask.set_many(np.asarray([bit]))
        np.testing.assert_array_equal(
            mask.test_many(np.asarray([0, 7, 19, 1])), [True, True, True, False]
        )
        assert mask.count() == 3

    def test_out_of_range_set_raises(self):
        mask = Bitmask(8)
        with pytest.raises(IndexError):
            mask.set_many(np.asarray([8]))
        with pytest.raises(IndexError):
            mask.set_many(np.asarray([-1]))

    def test_nbytes_is_ceil_of_size_over_8(self):
        assert Bitmask(1).nbytes == 1
        assert Bitmask(8).nbytes == 1
        assert Bitmask(9).nbytes == 2
        assert Bitmask(64).nbytes == 8

    def test_buffer_wrapping_requires_matching_length(self):
        with pytest.raises(ValueError):
            Bitmask(16, buffer=np.zeros(1, dtype=np.uint8))


class TestBulkOperations:
    def test_set_many_and_to_indices_roundtrip(self):
        idx = np.asarray([0, 5, 5, 31, 17])
        mask = Bitmask(32)
        mask.set_many(idx)
        np.testing.assert_array_equal(mask.to_indices(), np.unique(idx))

    def test_test_many(self):
        mask = Bitmask.from_indices(64, [2, 40, 63])
        flags = mask.test_many(np.asarray([0, 2, 40, 62, 63]))
        np.testing.assert_array_equal(flags, [False, True, True, False, True])

    def test_or_with_merges(self):
        a = Bitmask.from_indices(30, [1, 2])
        b = Bitmask.from_indices(30, [2, 25])
        a.or_with(b)
        np.testing.assert_array_equal(a.to_indices(), [1, 2, 25])

    def test_or_with_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            Bitmask(8).or_with(Bitmask(16))

    def test_and_not_difference(self):
        new = Bitmask.from_indices(40, [3, 9, 22])
        old = Bitmask.from_indices(40, [9])
        np.testing.assert_array_equal(new.and_not(old).to_indices(), [3, 22])

    def test_copy_is_independent(self):
        a = Bitmask.from_indices(8, [1])
        b = a.copy()
        b.set_many(np.asarray([2]))
        np.testing.assert_array_equal(a.to_indices(), [1])


class TestProperties:
    @given(
        size=st.integers(min_value=1, max_value=300),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_set_many_matches_python_set_semantics(self, size, data):
        indices = data.draw(
            st.lists(st.integers(min_value=0, max_value=size - 1), max_size=80)
        )
        mask = Bitmask(size)
        mask.set_many(np.asarray(indices, dtype=np.int64))
        expected = np.asarray(sorted(set(indices)), dtype=np.int64)
        np.testing.assert_array_equal(mask.to_indices(), expected)
        assert mask.count() == len(set(indices))

    @given(
        size=st.integers(min_value=1, max_value=200),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_or_is_set_union(self, size, data):
        a_idx = data.draw(st.lists(st.integers(0, size - 1), max_size=50))
        b_idx = data.draw(st.lists(st.integers(0, size - 1), max_size=50))
        a = Bitmask.from_indices(size, a_idx)
        b = Bitmask.from_indices(size, b_idx)
        a.or_with(b)
        expected = np.asarray(sorted(set(a_idx) | set(b_idx)), dtype=np.int64)
        np.testing.assert_array_equal(a.to_indices(), expected)

    @given(
        size=st.integers(min_value=1, max_value=200),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_and_not_is_set_difference(self, size, data):
        a_idx = data.draw(st.lists(st.integers(0, size - 1), max_size=50))
        b_idx = data.draw(st.lists(st.integers(0, size - 1), max_size=50))
        a = Bitmask.from_indices(size, a_idx)
        b = Bitmask.from_indices(size, b_idx)
        expected = np.asarray(sorted(set(a_idx) - set(b_idx)), dtype=np.int64)
        np.testing.assert_array_equal(a.and_not(b).to_indices(), expected)
