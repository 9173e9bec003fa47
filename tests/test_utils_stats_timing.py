"""Tests for statistics helpers and the timing containers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.stats import geometric_mean
from repro.utils.timing import PHASES, Timer, TimingBreakdown


class TestGeometricMean:
    def test_matches_closed_form(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([5.0]) == pytest.approx(5.0)

    def test_rejects_empty_and_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -2.0])

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_min_and_max(self, values):
        gm = geometric_mean(values)
        # Relative tolerance: the exp(mean(log)) round trip can wobble in the
        # last few ulps for values spanning many orders of magnitude.
        assert min(values) * (1 - 1e-12) <= gm <= max(values) * (1 + 1e-12)

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_arithmetic_mean(self, values):
        assert geometric_mean(values) <= float(np.mean(values)) * (1 + 1e-9)


class TestTimer:
    def test_timer_measures_nonnegative(self):
        with Timer() as t:
            math.sqrt(12345.0)
        assert t.elapsed >= 0.0


class TestTimingBreakdown:
    def test_phase_names_match_breakdown_fields(self):
        breakdown = TimingBreakdown()
        for phase in PHASES:
            assert hasattr(breakdown, phase)

    def test_parts_sum_and_add(self):
        a = TimingBreakdown(computation=1.0, local_communication=2.0, elapsed_ms=2.5)
        b = TimingBreakdown(computation=3.0, remote_normal_exchange=1.0, elapsed_ms=3.5)
        total = a + b
        assert total.computation == 4.0
        assert total.parts_sum() == pytest.approx(7.0)
        assert total.elapsed_ms == pytest.approx(6.0)

    def test_scaled(self):
        a = TimingBreakdown(computation=2.0, elapsed_ms=4.0)
        half = a.scaled(0.5)
        assert half.computation == 1.0
        assert half.elapsed_ms == 2.0

    def test_as_dict_keys(self):
        d = TimingBreakdown().as_dict()
        assert set(d) == {
            "computation",
            "local_communication",
            "remote_normal_exchange",
            "remote_delegate_reduce",
            "elapsed_ms",
        }
