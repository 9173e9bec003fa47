"""Result containers of the weighted program zoo.

Weighted traversals keep the same counter/timing machinery as the BFS
family (:class:`repro.core.results.TraversalResult`), and add
answer-specific payloads:

* :class:`SSSPResult` — shortest-path distances, stored as the raw
  order-preserving ``int64`` bit patterns the engine folded (see
  :mod:`repro.weighted.sssp`), with a float view for consumers;
* :class:`PageRankResult` — fixed-point integer ranks, bit-identical
  across backends and storage tiers, with a float view;
* :class:`HookingResult` — component labels from the hooking driver
  (same answer vocabulary as :class:`ComponentsResult`);
* :class:`TriangleCountResult` — global and per-vertex triangle counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.core.results import ComponentsResult, TraversalResult
from repro.core.state import UNVISITED

__all__ = [
    "SSSPResult",
    "PageRankResult",
    "HookingResult",
    "TriangleCountResult",
]


@dataclass
class SSSPResult(TraversalResult):
    """Single-source shortest paths over non-negative ``float64`` weights.

    ``dist_bits`` holds the engine's native answer: the IEEE-754 bit
    pattern of each finite distance reinterpreted as ``int64``, with
    :data:`~repro.core.state.UNVISITED` (``-1``) marking unreached
    vertices.  Non-negative finite doubles order identically under their
    int64 bit view, so this array is what the minimum-folds operated on
    and is bit-comparable across every backend/storage
    combination.  :attr:`distances` is the human-facing float view.
    """

    algorithm: ClassVar[str] = "sssp"
    # The int64 bit view is the exact value the engine's minimum-folds
    # operated on; the float ``distances`` view carries inf and cannot coerce.
    answer_fields: ClassVar[tuple[str, ...]] = ("dist_bits",)

    source: int = 0
    #: Bucket width used by the delta-stepping driver; ``inf`` means the
    #: Bellman-Ford-style single-bucket schedule.
    delta: float = 0.0
    #: Raw int64 bit-view distances (``UNVISITED`` = unreached).
    dist_bits: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    #: Bucket phases executed (delta-stepping only; equals iterations).
    phases: int = 0

    @property
    def distances(self) -> np.ndarray:
        """Float64 distances; unreached vertices hold ``inf``."""
        return np.where(
            self.dist_bits == UNVISITED, np.inf, self.dist_bits.view(np.float64)
        )

    @property
    def num_reached(self) -> int:
        """Number of vertices reached from the source (source included)."""
        return int(np.count_nonzero(self.dist_bits != UNVISITED))

    def summary(self) -> dict:
        base = super().summary()
        base.update(
            {
                "source": self.source,
                "reached": self.num_reached,
                "delta": self.delta,
            }
        )
        return base


@dataclass
class PageRankResult(TraversalResult):
    """PageRank in deterministic fixed-point arithmetic.

    ``ranks`` holds each vertex's rank scaled by :attr:`scale`
    (an exact integer — every fold is an integer add, so the answer is
    bit-identical regardless of execution order).  ``ranks_float``
    recovers the conventional probability-vector view.
    """

    algorithm: ClassVar[str] = "pagerank"
    answer_fields: ClassVar[tuple[str, ...]] = ("ranks",)

    damping: float = 0.85
    #: ``"fixed"`` (fixed sweep count) or ``"push"`` (residual push).
    mode: str = "fixed"
    #: Fixed-point scale: a rank of 1.0 is stored as ``scale``.
    scale: int = 1 << 34
    #: Per-vertex fixed-point ranks.
    ranks: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def ranks_float(self) -> np.ndarray:
        """Float64 view of the ranks (sums to ~1.0)."""
        return self.ranks.astype(np.float64) / float(self.scale)

    def top_vertices(self, k: int = 10) -> np.ndarray:
        """The ``k`` highest-ranked vertex ids, best first (ties by id)."""
        k = min(int(k), self.ranks.size)
        # Sort by (-rank, id): stable sort on id then stable sort on -rank.
        order = np.argsort(-self.ranks, kind="stable")
        return order[:k]

    def summary(self) -> dict:
        base = super().summary()
        base.update(
            {
                "damping": self.damping,
                "mode": self.mode,
                "rank_sum": float(self.ranks_float.sum()),
            }
        )
        return base


@dataclass
class HookingResult(ComponentsResult):
    """Component labels computed by the min-label hooking driver."""

    algorithm: ClassVar[str] = "components-hooking"

    #: Pointer-jumping passes executed across all rounds.
    jump_passes: int = 0

    def summary(self) -> dict:
        base = super().summary()
        base.update({"jump_passes": self.jump_passes})
        return base


@dataclass
class TriangleCountResult(TraversalResult):
    """Global and per-vertex triangle counts of the undirected graph."""

    algorithm: ClassVar[str] = "triangles"
    answer_fields: ClassVar[tuple[str, ...]] = ("per_vertex",)

    #: Total number of distinct triangles.
    triangles: int = 0
    #: Triangles incident to each vertex (each triangle counts once per corner).
    per_vertex: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def max_per_vertex(self) -> int:
        """Largest per-vertex triangle count."""
        return int(self.per_vertex.max()) if self.per_vertex.size else 0

    def summary(self) -> dict:
        base = super().summary()
        base.update(
            {
                "triangles": self.triangles,
                "max_per_vertex": self.max_per_vertex,
            }
        )
        return base
