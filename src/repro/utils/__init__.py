"""Shared low-level utilities for the BFS reproduction.

The utilities here are intentionally small and dependency-free so that every
other subpackage (graph generation, partitioning, the cluster substrate, the
BFS engine and the performance model) can rely on them without circular
imports.

Public modules
--------------
``bitmask``
    Packed boolean bitmasks used for delegate visited status (the paper stores
    one bit per delegate and all-reduces the packed masks).
``rng``
    Deterministic random-number and hashing helpers (the paper randomises
    vertex numbers with a deterministic hash after edge generation).
``sorting``
    :func:`sorted_unique`, the sort + neighbour-compare replacement for plain
    ``numpy.unique`` that every layer uses on integer arrays.
``stats``
    The geometric mean used by the paper for reporting traversal rates across
    140 random sources.
``timing``
    The wall clock, a context-manager timer and the modeled runtime
    breakdown.
"""

from repro.utils.bitmask import Bitmask
from repro.utils.rng import deterministic_hash_permutation, make_rng, splitmix64
from repro.utils.sorting import sorted_unique
from repro.utils.stats import geometric_mean
from repro.utils.timing import Timer, TimingBreakdown

__all__ = [
    "Bitmask",
    "deterministic_hash_permutation",
    "make_rng",
    "splitmix64",
    "sorted_unique",
    "geometric_mean",
    "Timer",
    "TimingBreakdown",
]
