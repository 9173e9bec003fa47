"""Tests for direction-optimization state and BFS options."""

from __future__ import annotations

import math

import pytest

from repro.core.direction import DirectionState, estimate_backward_workload
from repro.core.options import BFSOptions, DirectionFactors


class TestBackwardEstimate:
    def test_formula(self):
        # |U| (q + s) / q
        assert estimate_backward_workload(10, q=5, s=15) == pytest.approx(40.0)
        assert estimate_backward_workload(0, q=5, s=5) == 0.0

    def test_empty_frontier_gives_infinite_estimate(self):
        assert math.isinf(estimate_backward_workload(10, q=0, s=5))

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            estimate_backward_workload(-1, 1, 1)
        with pytest.raises(ValueError):
            estimate_backward_workload(1, -1, 1)


class TestDirectionFactors:
    def test_valid_factors(self):
        f = DirectionFactors(0.5, 0.1)
        assert f.factor0 == 0.5

    def test_invalid_factors(self):
        with pytest.raises(ValueError):
            DirectionFactors(0.0, 0.1)
        with pytest.raises(ValueError):
            DirectionFactors(0.5, -1.0)
        with pytest.raises(ValueError):
            DirectionFactors(0.1, 0.5)  # factor1 > factor0


class TestDirectionState:
    def test_switches_to_backward_when_forward_expensive(self):
        state = DirectionState(DirectionFactors(0.5, 0.01))
        assert state.decide(forward_workload=100, backward_workload=10) is True
        assert state.switches == 1

    def test_stays_forward_when_cheap(self):
        state = DirectionState(DirectionFactors(0.5, 0.01))
        assert state.decide(10, 1000) is False
        assert state.switches == 0

    def test_hysteresis_switch_back(self):
        state = DirectionState(DirectionFactors(0.5, 0.1))
        state.decide(100, 10)  # -> backward
        assert state.decide(5, 1000) is False  # FV < 0.1 * BV -> forward again
        assert state.switches == 2

    def test_stays_backward_in_between(self):
        state = DirectionState(DirectionFactors(0.5, 0.01))
        state.decide(100, 10)
        assert state.decide(50, 100) is True  # between the two thresholds

    def test_disabled_always_forward(self):
        state = DirectionState(DirectionFactors(0.5, 0.01), enabled=False)
        assert state.decide(1e9, 1.0) is False
        assert state.history == [False]

    def test_negative_workloads_rejected(self):
        state = DirectionState(DirectionFactors(0.5, 0.01))
        with pytest.raises(ValueError):
            state.decide(-1, 1)


class TestBFSOptions:
    def test_defaults_match_paper_configuration(self):
        opts = BFSOptions()
        assert opts.direction_optimized
        assert opts.blocking_reduce
        assert not opts.local_all2all and not opts.uniquify
        assert opts.dd_factors.factor0 == pytest.approx(0.5)
        assert opts.dn_factors.factor0 == pytest.approx(0.05)
        assert opts.nd_factors.factor0 == pytest.approx(1e-7)

    def test_uniquify_requires_local_all2all(self):
        with pytest.raises(ValueError):
            BFSOptions(uniquify=True, local_all2all=False)

    def test_overlap_bounds(self):
        with pytest.raises(ValueError):
            BFSOptions(overlap_efficiency=1.5)
        with pytest.raises(ValueError):
            BFSOptions(max_iterations=0)

    def test_label(self):
        assert BFSOptions().label() == "DO+BR"
        assert (
            BFSOptions(local_all2all=True, uniquify=True).label() == "DO+L+U+BR"
        )

    def test_label_renders_plain_when_all_optimizations_off(self):
        """With DO/L/U all off the label must still name the configuration."""
        assert BFSOptions(direction_optimized=False).label() == "plain+BR"
        assert (
            BFSOptions(direction_optimized=False, blocking_reduce=False).label()
            == "plain+IR"
        )
