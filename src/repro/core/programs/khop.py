"""K-hop reachability: BFS truncated after a fixed number of super-steps.

The workhorse of "friends of friends" style queries: identical to
:class:`repro.core.programs.BFSLevels` in every mechanism (visit-once, mask
channel, direction optimization), but the engine stops after ``max_hops``
levels even though the frontier may be non-empty, so the cost scales with the
neighbourhood size instead of the component size.
"""

from __future__ import annotations

import numpy as np

from repro.core.programs.bfs_levels import BFSLevels
from repro.core.results import ReachabilityResult

__all__ = ["KHopReachability"]


class KHopReachability(BFSLevels):
    """Distances from the source, capped at ``max_hops`` levels.

    ``max_hops=0`` is legal and degenerate: the result covers only the source
    and, having run zero super-steps, carries no modeled time (``summary()``
    reports a 0.0 rate; ``teps()`` raises as for any zero-time run).
    """

    name = "k-hop"

    def __init__(self, source: int, max_hops: int) -> None:
        super().__init__(source)
        if max_hops < 0:
            raise ValueError(f"max_hops must be >= 0, got {max_hops}")
        self.max_hops = self.max_levels = int(max_hops)

    def make_result(self, values: np.ndarray, base: dict) -> ReachabilityResult:
        return ReachabilityResult(
            source=self.source,
            max_hops=self.max_hops,
            distances=values,
            **base,
        )
