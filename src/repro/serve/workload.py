"""Deterministic query workloads for the serving benchmark.

Real query traffic against a social/web graph is heavily skewed: a small set
of popular sources (celebrity profiles, hub pages) receives most of the
requests.  :class:`ZipfWorkload` replays that shape deterministically — every
random draw goes through :mod:`repro.utils.rng`, so the same spec produces a
bit-identical query stream on any machine, which is what lets the bench
harness treat queries/second scenarios like any other pinned scenario.

The generator is *closed-loop*: the stream is materialised up front and the
service consumes it as fast as it can, so the measured rate is the system's
saturated throughput (open-loop arrival processes measure latency under an
offered load instead — a different experiment).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.programs.table import PROGRAM_TABLE, make_program, names_where
from repro.utils.rng import hash64, make_rng

__all__ = [
    "Query",
    "QUERY_PROGRAMS",
    "ZipfWorkload",
    "MixedWorkload",
    "zipf_ranks",
    "zipf_weights",
]


#: Program names a query may request: the table's servable rows.
QUERY_PROGRAMS = names_where("servable")


#: The :class:`Query` fields that are program parameters, in ``params`` order.
_PARAM_FIELDS = ("max_hops", "delta", "damping", "iterations")


@dataclass(frozen=True)
class Query:
    """One client request: a traversal of a named program.

    ``levels`` / ``khop`` are the unweighted BFS queries; ``sssp`` runs
    delta-stepping shortest paths (the served graph must carry edge
    weights) and ``pagerank`` the fixed-iteration ranking (``source`` is
    ignored — every pagerank query with the same parameters shares one
    answer).  The per-program parameters (``max_hops``, ``delta``,
    ``damping``, ``iterations``) are part of the service's cache key:
    two queries that differ only in a parameter are different requests.
    A parameter is legal exactly when the program's row in
    :data:`repro.core.programs.PROGRAM_TABLE` declares it; its range is
    checked by the program constructor.
    """

    #: Which program to run: one of :data:`QUERY_PROGRAMS`.
    program: str
    #: The source vertex (ignored for ``pagerank``).
    source: int
    #: Hop cap for ``khop`` queries.
    max_hops: int | None = None
    #: Bucket width for ``sssp`` queries (positive float, ``"auto"`` or inf).
    delta: float | str | None = None
    #: Damping factor for ``pagerank`` queries (defaults to 0.85).
    damping: float | None = None
    #: Sweep count for ``pagerank`` queries (defaults to 20).
    iterations: int | None = None

    def __post_init__(self) -> None:
        if self.program not in QUERY_PROGRAMS:
            raise ValueError(f"unknown query program {self.program!r}")
        self.make_program()  # raises on a stray, missing or out-of-range parameter

    @property
    def params(self) -> tuple:
        """The program parameters, as cached and batched: everything that
        changes the answer besides ``(program, source)``."""
        return (self.max_hops, self.delta, self.damping, self.iterations)

    @property
    def row(self):
        """This query's row of the program table."""
        return PROGRAM_TABLE[self.program]

    def program_params(self) -> dict:
        """The parameters this query sets, by constructor keyword."""
        return {name: v for name, v in zip(_PARAM_FIELDS, self.params) if v is not None}

    def make_program(self):
        """The engine program answering this query (single-source form)."""
        return make_program(self.program, self.source, **self.program_params())


#: Normalised Zipf weight vectors keyed by ``(pool, skew)``.  Building one is
#: O(pool) and the serving paths draw from the same distribution thousands of
#: times per replay, so the vector is computed once and shared read-only.
_zipf_weight_cache: dict[tuple[int, float], np.ndarray] = {}


def zipf_weights(pool: int, skew: float) -> np.ndarray:
    """The normalised weight vector ``P(r) ∝ (r + 1)^-skew`` over ``[0, pool)``.

    Cached per ``(pool, skew)`` and returned read-only (callers share one
    array; mutating it would corrupt every later draw).
    """
    if pool < 1:
        raise ValueError(f"pool must be >= 1, got {pool}")
    if skew < 0:
        raise ValueError(f"skew must be non-negative, got {skew}")
    key = (int(pool), float(skew))
    weights = _zipf_weight_cache.get(key)
    if weights is None:
        weights = np.power(np.arange(1, pool + 1, dtype=np.float64), -float(skew))
        weights /= weights.sum()
        weights.flags.writeable = False
        _zipf_weight_cache[key] = weights
    return weights


def zipf_ranks(count: int, pool: int, skew: float, rng) -> np.ndarray:
    """Draw ``count`` ranks in ``[0, pool)`` with ``P(r) ∝ (r + 1)^-skew``.

    ``skew = 0`` is uniform; larger values concentrate mass on low ranks
    (``skew ≈ 1`` is the classic Zipf web-traffic shape).
    """
    return make_rng(rng).choice(pool, size=int(count), p=zipf_weights(pool, skew))


@dataclass(frozen=True)
class ZipfWorkload:
    """A pinned, replayable Zipf-skewed query stream.

    Parameters
    ----------
    num_queries:
        Stream length.
    skew:
        Zipf exponent of the popularity distribution (0 = uniform).
    pool:
        Size of the candidate source pool the ranks map onto; the effective
        pool is capped at the number of valid (non-isolated) sources.
    seed:
        Drives both the popularity order (which vertex gets which rank) and
        the per-query rank draws.
    program:
        Query program for every request (one of :data:`QUERY_PROGRAMS`;
        weighted programs need the served graph built with weights).
    max_hops:
        Hop cap for ``khop`` streams.
    """

    num_queries: int = 256
    skew: float = 1.0
    pool: int = 64
    seed: int = 11
    program: str = "levels"
    max_hops: int | None = None

    def __post_init__(self) -> None:
        if self.num_queries < 1:
            raise ValueError(f"num_queries must be >= 1, got {self.num_queries}")
        if self.pool < 1:
            raise ValueError(f"pool must be >= 1, got {self.pool}")
        if self.skew < 0:
            raise ValueError(f"skew must be non-negative, got {self.skew}")
        Query(program=self.program, source=0, max_hops=self.max_hops)

    def sources(self, num_vertices: int, degrees: np.ndarray | None = None) -> np.ndarray:
        """The stream's source vertices, in request order.

        Candidates are the non-isolated vertices (when ``degrees`` is given),
        assigned popularity ranks by a seeded hash shuffle; rank 0 is the
        hottest source.  Everything is deterministic in ``(spec, graph)``.
        """
        if num_vertices < 1:
            raise ValueError("graph has no vertices to query")
        if degrees is not None:
            candidates = np.flatnonzero(np.asarray(degrees) > 0).astype(np.int64)
            if candidates.size == 0:
                raise ValueError("all vertices are isolated; no valid query sources")
        else:
            candidates = np.arange(num_vertices, dtype=np.int64)
        # Popularity order: a deterministic hash shuffle of the candidates,
        # so the hot set is scattered over the id space (not just low ids).
        order = np.argsort(hash64(candidates.astype(np.uint64), seed=self.seed), kind="stable")
        pool = min(self.pool, candidates.size)
        ranked = candidates[order[:pool]]
        ranks = zipf_ranks(self.num_queries, pool, self.skew, rng=self.seed + 1)
        return ranked[ranks]

    def generate(self, num_vertices: int, degrees: np.ndarray | None = None) -> list[Query]:
        """Materialise the query stream for a graph of ``num_vertices``."""
        return [
            Query(program=self.program, source=int(s), max_hops=self.max_hops)
            for s in self.sources(num_vertices, degrees)
        ]

    def describe(self) -> dict:
        """JSON-stable description for bench artifacts."""
        return {
            "num_queries": self.num_queries,
            "skew": self.skew,
            "pool": self.pool,
            "seed": self.seed,
            "program": self.program,
            "max_hops": self.max_hops,
        }


@dataclass(frozen=True)
class MixedWorkload:
    """A pinned closed-loop stream mixing reads with edge-update batches.

    No real "millions of users" workload is pure reads: profiles follow each
    other while timelines are queried.  This workload interleaves a
    :class:`ZipfWorkload` query stream with
    :class:`repro.dynamic.EdgeDelta` insertion batches at a configurable
    ``update_rate``, deterministically: operation ``i`` is an update batch
    exactly when the seeded per-op draw falls under the rate, so the same
    spec replays the same read/update interleaving on any machine.

    Parameters
    ----------
    queries:
        The read side of the stream (popularity skew, program, length).
    update_rate:
        Fraction of operations that are update batches (``0.0``–``0.9``).
        The total operation count stays ``queries.num_queries``; reads are
        the remainder.
    edges_per_update:
        Undirected insertions per update batch.
    update_style:
        ``"uniform"`` or ``"pa"`` (see :func:`repro.dynamic.update_stream`).
    update_seed:
        Drives both the interleaving draw and the update-stream generator.
    """

    queries: ZipfWorkload | None = None
    update_rate: float = 0.1
    edges_per_update: int = 256
    update_style: str = "uniform"
    update_seed: int = 23

    def __post_init__(self) -> None:
        if self.queries is None:
            object.__setattr__(self, "queries", ZipfWorkload())
        if not 0.0 <= self.update_rate <= 0.9:
            raise ValueError(
                f"update_rate must be in [0, 0.9], got {self.update_rate}"
            )
        if self.edges_per_update < 1:
            raise ValueError(
                f"edges_per_update must be >= 1, got {self.edges_per_update}"
            )

    def generate(self, edges, degrees: np.ndarray | None = None) -> list:
        """Materialise the operation stream for a prepared edge list.

        Returns a list interleaving :class:`Query` objects with
        :class:`repro.dynamic.EdgeDelta` batches, in replay order.
        """
        from repro.dynamic.delta import update_stream

        num_ops = self.queries.num_queries
        rng = make_rng(self.update_seed)
        is_update = rng.random(num_ops) < self.update_rate
        num_updates = int(np.count_nonzero(is_update))
        reads = self.queries.generate(edges.num_vertices, degrees=degrees)
        deltas = (
            update_stream(
                edges,
                num_batches=num_updates,
                edges_per_batch=self.edges_per_update,
                style=self.update_style,
                seed=self.update_seed + 1,
            )
            if num_updates
            else []
        )
        ops: list = []
        read_it = iter(reads)
        delta_it = iter(deltas)
        for flag in is_update:
            ops.append(next(delta_it) if flag else next(read_it))
        return ops

    def describe(self) -> dict:
        """JSON-stable description for bench artifacts."""
        return {
            "queries": self.queries.describe(),
            "update_rate": self.update_rate,
            "edges_per_update": self.edges_per_update,
            "update_style": self.update_style,
            "update_seed": self.update_seed,
        }
