"""Closed-form communication-cost formulas (paper §II-B and §V).

The paper's scalability argument is analytic.  For weak scaling (graph size
and GPU count growing together), the per-super-step communication of:

* **1D-partitioned DOBFS** requires broadcasting newly-visited vertices to all
  peers — total volume ≈ ``8 m`` bytes, time ``8 m / p · g``;
* **2D-partitioned (DO)BFS** needs a row reduction and a column broadcast —
  volume ``8 n_t √p log √p`` bytes forward plus
  ``2 n S_b √p log(√p) / 8`` bytes backward, i.e. time
  ``(4 n_t + n S_b / 8)(log √p / √p) · g``, which grows as ``√p``;
* the **paper's model** (delegates reduced globally, normal vertices
  point-to-point) has volume ``d · p_rank / 4 · S + 4 |E_nn|`` bytes and time
  ``(d log p_rank / 4 · S + 4 |E_nn| / p) · g``, which grows only as
  ``log p_rank``.

These functions evaluate those formulas so benchmarks can plot the growth
curves and tests can verify the crossover behaviour the paper claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "CommunicationCosts",
    "one_d_dobfs_volume_bytes",
    "two_d_volume_bytes",
    "two_d_time_seconds",
    "paper_model_volume_bytes",
    "paper_model_time_seconds",
    "weak_scaling_growth",
]


@dataclass(frozen=True)
class CommunicationCosts:
    """Volume (bytes) and time (seconds) of one scheme at one configuration."""

    scheme: str
    num_gpus: int
    volume_bytes: float
    time_seconds: float


def one_d_dobfs_volume_bytes(num_edges: int) -> float:
    """§II-B: 1D-partitioned DOBFS broadcasts newly visited vertices — ``8 m`` bytes."""
    if num_edges < 0:
        raise ValueError("num_edges must be non-negative")
    return 8.0 * num_edges


def two_d_volume_bytes(
    num_vertices: int,
    forward_visited: int,
    backward_iterations: int,
    num_gpus: int,
) -> float:
    """§II-B: total volume of 2D-partitioned DOBFS.

    ``8 n_t √p log √p`` bytes for the forward phase plus
    ``2 n S_b √p log(√p) / 8`` bytes for the backward phase with compressed
    bitmasks.
    """
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    sqrt_p = math.sqrt(num_gpus)
    log_sqrt_p = math.log2(sqrt_p) if sqrt_p > 1 else 0.0
    forward = 8.0 * forward_visited * sqrt_p * log_sqrt_p
    backward = 2.0 * num_vertices * backward_iterations * sqrt_p * log_sqrt_p / 8.0
    return forward + backward


def two_d_time_seconds(
    num_vertices: int,
    forward_visited: int,
    backward_iterations: int,
    num_gpus: int,
    g_seconds_per_byte: float,
) -> float:
    """§II-B: ``(4 n_t + n S_b / 8)(log √p / √p) · g``."""
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    sqrt_p = math.sqrt(num_gpus)
    log_sqrt_p = math.log2(sqrt_p) if sqrt_p > 1 else 0.0
    return (
        (4.0 * forward_visited + num_vertices * backward_iterations / 8.0)
        * (log_sqrt_p / sqrt_p)
        * g_seconds_per_byte
    )


def paper_model_volume_bytes(
    num_delegates: int,
    num_ranks: int,
    iterations_with_delegate_updates: int,
    nn_edges: int,
) -> float:
    """§V: ``d · p_rank / 4 · S' + 4 |E_nn|`` bytes."""
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    return (
        num_delegates * num_ranks / 4.0 * iterations_with_delegate_updates
        + 4.0 * nn_edges
    )


def paper_model_time_seconds(
    num_delegates: int,
    num_ranks: int,
    iterations_with_delegate_updates: int,
    nn_edges: int,
    num_gpus: int,
    g_seconds_per_byte: float,
) -> float:
    """§V: ``(d log p_rank / 4 · S' + 4 |E_nn| / p) · g``."""
    if num_ranks < 1 or num_gpus < 1:
        raise ValueError("rank and GPU counts must be >= 1")
    log_ranks = math.log2(num_ranks) if num_ranks > 1 else 0.0
    return (
        num_delegates * log_ranks / 4.0 * iterations_with_delegate_updates
        + 4.0 * nn_edges / num_gpus
    ) * g_seconds_per_byte


def weak_scaling_growth(
    num_gpus: int,
    vertices_per_gpu: int,
    edges_per_gpu: int,
    iterations: int,
    g_seconds_per_byte: float,
    gpus_per_rank: int = 4,
    delegate_factor: float = 1.0,
    nn_edge_fraction: float = 0.06,
) -> dict[str, CommunicationCosts]:
    """Evaluate all three schemes along a weak-scaling curve point.

    The graph grows with the cluster: ``n = vertices_per_gpu * p`` and
    ``m = edges_per_gpu * p``.  Delegates are kept at ``delegate_factor *
    n/p`` and the nn-edge fraction fixed, following the paper's tuning rule.
    Returns one :class:`CommunicationCosts` per scheme, which the Figure-level
    benchmark prints for a sweep of ``num_gpus`` to exhibit the ``√p`` vs
    ``log p`` growth.
    """
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    if gpus_per_rank < 1:
        raise ValueError("gpus_per_rank must be >= 1")
    n = vertices_per_gpu * num_gpus
    m = edges_per_gpu * num_gpus
    num_ranks = max(1, num_gpus // gpus_per_rank)
    d = int(delegate_factor * vertices_per_gpu)
    nn_edges = int(nn_edge_fraction * m)
    forward_visited = n // 2
    backward_iterations = max(1, iterations // 2)

    one_d = CommunicationCosts(
        scheme="1D-DOBFS",
        num_gpus=num_gpus,
        volume_bytes=one_d_dobfs_volume_bytes(m),
        time_seconds=one_d_dobfs_volume_bytes(m) / num_gpus * g_seconds_per_byte,
    )
    two_d = CommunicationCosts(
        scheme="2D-DOBFS",
        num_gpus=num_gpus,
        volume_bytes=two_d_volume_bytes(n, forward_visited, backward_iterations, num_gpus),
        time_seconds=two_d_time_seconds(
            n, forward_visited, backward_iterations, num_gpus, g_seconds_per_byte
        ),
    )
    ours = CommunicationCosts(
        scheme="degree-separated",
        num_gpus=num_gpus,
        volume_bytes=paper_model_volume_bytes(d, num_ranks, backward_iterations, nn_edges),
        time_seconds=paper_model_time_seconds(
            d, num_ranks, backward_iterations, nn_edges, num_gpus, g_seconds_per_byte
        ),
    )
    return {"1d": one_d, "2d": two_d, "paper": ours}
