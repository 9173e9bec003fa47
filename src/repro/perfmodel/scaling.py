"""Weak- and strong-scaling experiment drivers (Figures 9, 10 and 11).

These helpers run the full pipeline — generate an RMAT graph, partition it,
traverse it from several random sources on a simulated cluster of the
requested shape — for a sweep of cluster sizes, and aggregate the per-source
results the way the paper reports them (geometric means, per-phase runtime
breakdowns).  They are used both by the benchmark harness and by the
``examples/weak_scaling_study.py`` script.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.hardware import HardwareSpec
from repro.core.campaign import run_campaign
from repro.core.engine import TraversalEngine
from repro.core.options import BFSOptions
from repro.graph.degree import out_degrees
from repro.graph.rmat import generate_rmat
from repro.partition.delegates import suggest_threshold
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
from repro.perfmodel.teps import rmat_counted_edges
from repro.utils.rng import random_sources
from repro.utils.timing import TimingBreakdown

__all__ = ["ScalingPoint", "run_configuration", "weak_scaling_sweep", "strong_scaling_sweep"]


@dataclass
class ScalingPoint:
    """Aggregated result of one (scale, cluster shape) configuration."""

    scale: int
    layout_notation: str
    num_gpus: int
    threshold: int
    direction_optimized: bool
    gteps_geo_mean: float
    elapsed_ms_geo_mean: float
    breakdown: TimingBreakdown
    num_sources: int
    per_source_gteps: list = field(default_factory=list)


def run_configuration(
    scale: int,
    layout: ClusterLayout,
    threshold: int | None = None,
    options: BFSOptions | None = None,
    hardware: HardwareSpec | None = None,
    num_sources: int = 8,
    seed: int = 11,
) -> ScalingPoint:
    """Generate, partition and traverse one RMAT configuration.

    Parameters
    ----------
    scale:
        RMAT scale of the whole graph.
    layout:
        Cluster shape.
    threshold:
        Degree threshold; ``None`` applies the paper's suggestion rule.
    options:
        BFS options (defaults to the paper's main configuration).
    hardware:
        Hardware model (defaults to Ray).
    num_sources:
        Number of random BFS sources; only runs with more than one iteration
        are counted, like the paper's reporting (:class:`Campaign`).
    seed:
        Seed controlling graph generation and source selection.
    """
    options = options if options is not None else BFSOptions()
    edges = generate_rmat(scale, rng=seed)
    if threshold is None:
        threshold = suggest_threshold(edges, layout.num_gpus)
    graph = build_partitions(edges, layout, threshold)
    sources = random_sources(
        edges.num_vertices, num_sources, rng=seed + 1, degrees=out_degrees(edges)
    )
    engine = TraversalEngine(graph, options=options, hardware=hardware)
    try:
        campaign = run_campaign(engine, sources)
    finally:
        engine.close()
    if not campaign.reported:
        raise RuntimeError(
            "no BFS run traversed more than one iteration; "
            "increase num_sources or check the graph"
        )
    counted = rmat_counted_edges(scale)
    breakdown = TimingBreakdown()
    for result in campaign.reported:
        breakdown = breakdown + result.timing
    return ScalingPoint(
        scale=scale,
        layout_notation=layout.notation(),
        num_gpus=layout.num_gpus,
        threshold=int(threshold),
        direction_optimized=options.direction_optimized,
        gteps_geo_mean=campaign.geo_mean_gteps(counted),
        elapsed_ms_geo_mean=campaign.geo_mean_elapsed_ms(),
        breakdown=breakdown.scaled(1.0 / len(campaign.reported)),
        num_sources=len(campaign.reported),
        per_source_gteps=campaign.rates(counted),
    )


def weak_scaling_sweep(
    scale_per_gpu: int,
    gpu_counts: list[int],
    gpus_per_rank: int = 2,
    options: BFSOptions | None = None,
    hardware: HardwareSpec | None = None,
    num_sources: int = 6,
    seed: int = 11,
) -> list[ScalingPoint]:
    """Weak scaling: the total scale grows so each GPU keeps ``2^scale_per_gpu`` vertices.

    Mirrors Figure 9, where a ~scale-26 RMAT graph rides on every GPU and the
    GPU count doubles from 1 to 124.
    """
    points: list[ScalingPoint] = []
    for p in gpu_counts:
        if p < 1:
            raise ValueError("GPU counts must be positive")
        scale = scale_per_gpu + max(0, int(round(np.log2(p))))
        ranks = max(1, p // gpus_per_rank)
        per_rank = min(gpus_per_rank, p)
        layout = ClusterLayout(num_ranks=ranks, gpus_per_rank=per_rank)
        points.append(
            run_configuration(
                scale,
                layout,
                options=options,
                hardware=hardware,
                num_sources=num_sources,
                seed=seed,
            )
        )
    return points


def strong_scaling_sweep(
    scale: int,
    gpu_counts: list[int],
    gpus_per_rank: int = 2,
    options: BFSOptions | None = None,
    hardware: HardwareSpec | None = None,
    num_sources: int = 6,
    seed: int = 11,
) -> list[ScalingPoint]:
    """Strong scaling: a fixed-scale graph over an increasing GPU count (Figure 11)."""
    points: list[ScalingPoint] = []
    for p in gpu_counts:
        if p < 1:
            raise ValueError("GPU counts must be positive")
        ranks = max(1, p // gpus_per_rank)
        per_rank = min(gpus_per_rank, p)
        layout = ClusterLayout(num_ranks=ranks, gpus_per_rank=per_rank)
        points.append(
            run_configuration(
                scale,
                layout,
                options=options,
                hardware=hardware,
                num_sources=num_sources,
                seed=seed,
            )
        )
    return points
