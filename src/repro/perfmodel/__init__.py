"""Analytic performance model and prior-work comparison data.

``costs``
    Closed-form communication-volume and time formulas from §II-B (1D / 2D
    partitioning) and §V (the paper's delegate + normal model), used for the
    model-scaling figures and to cross-check the simulation's counters.
``teps``
    The Graph500 counted-edge convention for RMAT rates.
``scaling``
    Weak- and strong-scaling experiment drivers that sweep the simulated
    cluster size and aggregate per-source results (Figures 9–11).
``comparison``
    The prior-work data points of Figure 1 and Table II, together with
    helpers that place this reproduction's modeled results among them.
"""

from repro.perfmodel.comparison import PRIOR_WORK, PriorWork, comparison_table
from repro.perfmodel.costs import (
    CommunicationCosts,
    one_d_dobfs_volume_bytes,
    paper_model_volume_bytes,
    two_d_volume_bytes,
    weak_scaling_growth,
)
from repro.perfmodel.scaling import ScalingPoint, strong_scaling_sweep, weak_scaling_sweep

__all__ = [
    "CommunicationCosts",
    "one_d_dobfs_volume_bytes",
    "two_d_volume_bytes",
    "paper_model_volume_bytes",
    "weak_scaling_growth",
    "ScalingPoint",
    "weak_scaling_sweep",
    "strong_scaling_sweep",
    "PriorWork",
    "PRIOR_WORK",
    "comparison_table",
]
