"""Tests for the analytic cost model, TEPS accounting and comparison data."""

from __future__ import annotations

import pytest

from repro.perfmodel.comparison import PAPER_RESULT, PRIOR_WORK, comparison_table
from repro.perfmodel.costs import (
    one_d_dobfs_volume_bytes,
    paper_model_time_seconds,
    paper_model_volume_bytes,
    two_d_time_seconds,
    two_d_volume_bytes,
    weak_scaling_growth,
)
from repro.perfmodel.teps import rmat_counted_edges


class TestTeps:
    def test_counted_edges(self):
        assert rmat_counted_edges(26) == (1 << 26) * 16
        with pytest.raises(ValueError):
            rmat_counted_edges(-1)
        with pytest.raises(ValueError):
            rmat_counted_edges(10, edge_factor=0)


class TestCostFormulas:
    def test_one_d_volume(self):
        assert one_d_dobfs_volume_bytes(10**6) == 8e6
        with pytest.raises(ValueError):
            one_d_dobfs_volume_bytes(-1)

    def test_two_d_volume_zero_for_single_gpu(self):
        assert two_d_volume_bytes(1000, 500, 3, 1) == 0.0
        assert two_d_time_seconds(1000, 500, 3, 1, 1e-10) == 0.0

    def test_two_d_grows_with_sqrt_p(self):
        # Per-processor time (total/p constant graph) should grow ~ sqrt(p)·log.
        t16 = two_d_time_seconds(1 << 20, 1 << 19, 4, 16, 1e-10)
        t64 = two_d_time_seconds(1 << 20, 1 << 19, 4, 64, 1e-10)
        assert t64 < t16  # log(sqrt p)/sqrt p decreases for a fixed graph
        v16 = two_d_volume_bytes(1 << 20, 1 << 19, 4, 16)
        v64 = two_d_volume_bytes(1 << 20, 1 << 19, 4, 64)
        assert v64 > v16  # but total volume grows

    def test_paper_model_formulas(self):
        vol = paper_model_volume_bytes(1000, 8, 10, 5000)
        assert vol == pytest.approx(1000 * 8 / 4 * 10 + 4 * 5000)
        t = paper_model_time_seconds(1000, 8, 10, 5000, 32, 1e-10)
        assert t > 0
        assert paper_model_time_seconds(1000, 1, 10, 0, 4, 1e-10) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            two_d_volume_bytes(10, 10, 1, 0)
        with pytest.raises(ValueError):
            paper_model_volume_bytes(10, 0, 1, 1)
        with pytest.raises(ValueError):
            paper_model_time_seconds(10, 0, 1, 1, 4, 1e-10)


class TestWeakScalingGrowth:
    def test_paper_model_scales_better_than_2d(self):
        """The paper's core claim: log(p) growth beats sqrt(p) growth."""
        g = 8e-11
        small = weak_scaling_growth(4, 1 << 26, 1 << 30, 20, g)
        large = weak_scaling_growth(1024, 1 << 26, 1 << 30, 20, g)
        ratio_paper = large["paper"].time_seconds / small["paper"].time_seconds
        ratio_2d = large["2d"].time_seconds / small["2d"].time_seconds
        assert ratio_paper < ratio_2d
        # And at large p the paper model is cheaper in absolute terms too.
        assert large["paper"].time_seconds < large["2d"].time_seconds
        assert large["paper"].time_seconds < large["1d"].time_seconds

    def test_growth_is_monotone_in_p(self):
        g = 8e-11
        times = [
            weak_scaling_growth(p, 1 << 26, 1 << 30, 20, g)["paper"].time_seconds
            for p in [4, 16, 64, 256]
        ]
        assert all(a <= b + 1e-12 for a, b in zip(times, times[1:]))

    def test_invalid(self):
        with pytest.raises(ValueError):
            weak_scaling_growth(0, 1, 1, 1, 1e-10)
        with pytest.raises(ValueError):
            weak_scaling_growth(4, 1, 1, 1, 1e-10, gpus_per_rank=0)


class TestComparisonData:
    def test_paper_headline_number(self):
        assert PAPER_RESULT.gteps == pytest.approx(259.8)
        assert PAPER_RESULT.num_processors == 124
        assert PAPER_RESULT.max_scale == 33

    def test_prior_work_has_expected_entries(self):
        assert {"pan2017", "bernaschi2015", "yasui2017", "buluc2017", "krajecki2016"} <= set(
            PRIOR_WORK
        )
        for work in PRIOR_WORK.values():
            assert work.gteps > 0
            assert work.num_processors > 0
            assert work.gteps_per_processor > 0

    def test_comparison_table_ratios_match_paper_claims(self):
        rows = {row["reference"]: row for row in comparison_table()}
        bernaschi = rows["[18] Bernaschi et al. 2015"]
        # The paper: "about 31% of their performance with only 3% the GPUs".
        assert bernaschi["paper_vs_ref"] == pytest.approx(0.31, abs=0.02)
        yasui = rows["[9] Yasui & Fujisawa 2017"]
        assert yasui["paper_vs_ref"] == pytest.approx(1.49, abs=0.02)
        krajecki = rows["[20] Krajecki et al. 2016"]
        assert krajecki["paper_vs_ref"] > 3.5

    def test_comparison_table_accepts_measured_column(self):
        rows = comparison_table({"pan2017": 1.23})
        pan = [r for r in rows if "Pan" in r["reference"]][0]
        assert pan["repro_gteps"] == 1.23

    def test_per_processor_throughput_of_this_work_beats_gpu_clusters(self):
        ours = PAPER_RESULT.gteps_per_processor
        for key in ["bernaschi2015", "krajecki2016", "fu2014", "young2016", "ueno2013", "tsubame2017"]:
            assert ours > PRIOR_WORK[key].gteps_per_processor
