"""Per-subgraph direction optimization (paper §IV-B).

The traversal direction of the dd, dn and nd visit kernels is decided every
super-step by comparing the *forward* workload FV (sum of the frontier's
neighbour-list lengths in that subgraph) against an *estimate* of the
*backward* workload BV.  The paper derives

.. math::

    BV = \\sum_{u \\in U} \\frac{1 - (1-a)^{od(u)}}{a} \\approx |U| \\frac{q+s}{q}

where ``U`` is the set of unvisited sources of the reversed subgraph, ``q``
the input frontier length, ``s`` the number of unvisited sources of the
forward subgraph and ``a = q / (q + s)`` the probability that a potential
parent was newly visited.

The switching rule, with per-subgraph factors:

* forward → backward when ``FV > factor0 · BV``;
* backward → forward when ``FV < factor1 · BV``;
* otherwise keep the current direction.

Each DO-capable subgraph keeps its own :class:`DirectionState`, so the three
kernels can switch at their individually optimal points (nn never uses DO).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.options import DirectionFactors

__all__ = ["DirectionState", "estimate_backward_workload"]


def estimate_backward_workload(num_unvisited_reverse_sources: int, q: int, s: int) -> float:
    """The paper's BV estimate ``|U| (q + s) / q``.

    Parameters
    ----------
    num_unvisited_reverse_sources:
        ``|U|`` — unvisited vertices that would pull in the backward pass.
    q:
        Input frontier length (newly-visited potential parents).
    s:
        Number of still-unvisited forward sources.

    Returns
    -------
    float
        Estimated number of edges a backward-pull pass would examine.  When
        the frontier is empty the backward pass cannot discover anything, so
        the estimate is ``+inf`` to force the (free) forward direction.
    """
    if num_unvisited_reverse_sources < 0 or q < 0 or s < 0:
        raise ValueError("workload estimate inputs must be non-negative")
    if q == 0:
        return float("inf")
    return num_unvisited_reverse_sources * (q + s) / q


@dataclass
class DirectionState:
    """Direction-switching state of one DO-capable subgraph."""

    factors: DirectionFactors
    enabled: bool = True
    backward: bool = False
    switches: int = 0
    history: list = field(default_factory=list)

    def decide(self, forward_workload: float, backward_workload: float) -> bool:
        """Update and return the direction for the next visit.

        Returns ``True`` when the kernel should run backward-pull.
        """
        if not self.enabled:
            self.history.append(False)
            return False
        if forward_workload < 0 or backward_workload < 0:
            raise ValueError("workloads must be non-negative")
        previous = self.backward
        if not self.backward:
            if forward_workload > self.factors.factor0 * backward_workload:
                self.backward = True
        else:
            if forward_workload < self.factors.factor1 * backward_workload:
                self.backward = False
        if self.backward != previous:
            self.switches += 1
        self.history.append(self.backward)
        return self.backward
