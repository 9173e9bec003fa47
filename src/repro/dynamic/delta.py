"""Edge deltas and deterministic update streams for mutable graphs.

A :class:`EdgeDelta` is one batch of edge insertions and deletions against a
:class:`repro.dynamic.DynamicGraph`.  Deltas carry *directed* edge arrays;
the graph symmetrizes them on apply (the whole system assumes symmetric
inputs — direction optimization and the locally-symmetric nd/dn/dd subgraphs
depend on it), so callers usually describe each undirected update once.

:func:`update_stream` generates pinned, replayable delta batches the way
:mod:`repro.serve.workload` generates query streams: every draw goes through
:mod:`repro.utils.rng`, so a ``(graph, spec, seed)`` triple produces a
bit-identical stream on any machine, which is what lets the ``dyn-*`` bench
scenarios treat update workloads like any other pinned scenario.  Two styles
are provided:

* ``uniform`` — endpoints drawn uniformly at random (Erdős–Rényi-style
  densification);
* ``pa`` — preferential attachment: the destination is drawn
  degree-weighted against the *evolving* degree sequence (hubs keep getting
  hotter, the usual social-graph growth shape), the source uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.utils.rng import make_rng
from repro.utils.sorting import sorted_unique

__all__ = ["EdgeDelta", "AppliedDelta", "UPDATE_STYLES", "check_update_stream", "update_stream"]

#: Styles :func:`update_stream` understands.
UPDATE_STYLES = ("uniform", "pa")


def _as_edge_arrays(src, dst) -> tuple[np.ndarray, np.ndarray]:
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    if src.shape != dst.shape:
        raise ValueError(
            f"src and dst must have the same length, got {src.size} and {dst.size}"
        )
    if src.size and (src.min() < 0 or dst.min() < 0):
        raise ValueError("edge endpoints must be non-negative")
    return src, dst


@dataclass(frozen=True)
class EdgeDelta:
    """One batch of directed edge insertions and deletions.

    Attributes
    ----------
    insert_src, insert_dst:
        Parallel ``int64`` arrays of edges to add.
    insert_weights:
        Optional parallel ``float64`` weights for the inserted edges (finite,
        non-negative).  Only meaningful against a weighted graph; when absent
        on a weighted graph the edge-keyed deterministic weights apply.
    delete_src, delete_dst:
        Parallel ``int64`` arrays of edges to remove.
    """

    insert_src: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    insert_dst: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    delete_src: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    delete_dst: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    insert_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        ins = _as_edge_arrays(self.insert_src, self.insert_dst)
        dels = _as_edge_arrays(self.delete_src, self.delete_dst)
        object.__setattr__(self, "insert_src", ins[0])
        object.__setattr__(self, "insert_dst", ins[1])
        object.__setattr__(self, "delete_src", dels[0])
        object.__setattr__(self, "delete_dst", dels[1])
        if self.insert_weights is not None:
            from repro.graph.weights import validate_weights

            object.__setattr__(
                self,
                "insert_weights",
                validate_weights(self.insert_weights, num_edges=ins[0].size),
            )

    @classmethod
    def inserts(cls, pairs, weights=None) -> "EdgeDelta":
        """A pure-insertion delta from an ``(m, 2)`` array of edge pairs."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        return cls(insert_src=pairs[:, 0], insert_dst=pairs[:, 1], insert_weights=weights)

    @classmethod
    def deletes(cls, pairs) -> "EdgeDelta":
        """A pure-deletion delta from an ``(m, 2)`` array of edge pairs."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        return cls(delete_src=pairs[:, 0], delete_dst=pairs[:, 1])

    @property
    def num_inserts(self) -> int:
        """Directed insertions carried (before symmetrization/dedup)."""
        return int(self.insert_src.size)

    @property
    def num_deletes(self) -> int:
        """Directed deletions carried (before symmetrization/dedup)."""
        return int(self.delete_src.size)

    @property
    def empty(self) -> bool:
        """Whether the delta carries no updates at all."""
        return self.num_inserts == 0 and self.num_deletes == 0

    def describe(self) -> dict:
        """JSON-stable summary for artifacts and CLI output."""
        return {"inserts": self.num_inserts, "deletes": self.num_deletes}


@dataclass(frozen=True)
class AppliedDelta:
    """What :meth:`repro.dynamic.DynamicGraph.apply` actually changed.

    The arrays are the *effective* directed updates after symmetrization,
    self-loop removal and dedup against the current edge set — exactly the
    edges whose presence flipped, which is what incremental maintenance
    seeds its repair frontier from.
    """

    #: Directed edges that became present (both directions of each pair).
    insert_src: np.ndarray
    insert_dst: np.ndarray
    #: Directed edges that were removed.
    delete_src: np.ndarray
    delete_dst: np.ndarray
    #: Graph version after this apply.
    version: int
    #: Whether this apply triggered a compaction back into clean CSR.
    compacted: bool = False
    #: Why the compaction fired (``""`` when it did not).
    compact_reason: str = ""
    #: Effective weights of the inserted edges (parallel to ``insert_src``)
    #: on a weighted graph, ``None`` on an unweighted one.  Weighted
    #: maintenance (:func:`repro.dynamic.repair_seeds`) relaxes its repair
    #: seeds from these.
    insert_weights: np.ndarray | None = None

    @property
    def num_inserts(self) -> int:
        """Directed edges that became present."""
        return int(self.insert_src.size)

    @property
    def num_deletes(self) -> int:
        """Directed edges that were removed."""
        return int(self.delete_src.size)


def check_update_stream(
    num_batches: int, edges_per_batch: int, style: str, delete_fraction: float
) -> None:
    """Raise ``ValueError`` unless :func:`update_stream` accepts these values."""
    if style not in UPDATE_STYLES:
        raise ValueError(f"unknown update style {style!r}; expected one of {UPDATE_STYLES}")
    if num_batches < 0:
        raise ValueError(f"num_batches must be non-negative, got {num_batches}")
    if edges_per_batch < 1:
        raise ValueError(f"edges_per_batch must be >= 1, got {edges_per_batch}")
    if not 0.0 <= delete_fraction <= 1.0:
        raise ValueError(f"delete_fraction must be in [0, 1], got {delete_fraction}")


def update_stream(
    edges: EdgeList,
    num_batches: int,
    edges_per_batch: int,
    style: str = "uniform",
    delete_fraction: float = 0.0,
    seed: int = 17,
) -> list[EdgeDelta]:
    """A pinned stream of update batches against ``edges``.

    Each batch carries ``edges_per_batch`` undirected updates, of which a
    ``delete_fraction`` share are deletions of currently-present edges (drawn
    from the evolving edge set, so a later batch can delete an edge an
    earlier batch inserted) and the rest are insertions in the chosen
    ``style``.  Self-loops never appear; duplicate proposals are allowed and
    become no-ops at apply time, exactly like retried client requests.

    Parameters
    ----------
    edges:
        The prepared base graph the stream starts from.
    num_batches:
        Batches to generate.
    edges_per_batch:
        Undirected updates per batch.
    style:
        ``"uniform"`` or ``"pa"`` (preferential attachment).
    delete_fraction:
        Share of each batch that deletes instead of inserts (``0.0``–``1.0``).
    seed:
        Drives every draw through :func:`repro.utils.rng.make_rng`.
    """
    check_update_stream(num_batches, edges_per_batch, style, delete_fraction)
    n = edges.num_vertices
    if n < 2:
        raise ValueError("update streams need at least two vertices")

    rng = make_rng(seed)
    # Evolving state: the degree sequence (for preferential attachment) and a
    # canonical undirected edge pool (for deletions).  Both start from the
    # base graph and track the stream's own effect, so the generator stays
    # deterministic without ever touching a live DynamicGraph.  The input is
    # symmetric, so out-degrees (bincount over src alone) already count each
    # undirected edge at both endpoints — matching the +-1 per endpoint the
    # stream's own inserts and deletes apply below.
    degrees = np.bincount(edges.src, minlength=n).astype(np.int64)
    lo = np.minimum(edges.src, edges.dst)
    hi = np.maximum(edges.src, edges.dst)
    pool = sorted_unique(lo * np.int64(n) + hi)

    deletes_per_batch = int(round(delete_fraction * edges_per_batch))
    inserts_per_batch = edges_per_batch - deletes_per_batch
    deltas: list[EdgeDelta] = []
    for _ in range(num_batches):
        if inserts_per_batch:
            src = rng.integers(0, n, size=inserts_per_batch).astype(np.int64)
            if style == "pa":
                weights = (degrees + 1).astype(np.float64)
                weights /= weights.sum()
                dst = rng.choice(n, size=inserts_per_batch, p=weights).astype(np.int64)
            else:
                dst = rng.integers(0, n, size=inserts_per_batch).astype(np.int64)
            # Deterministically repair self-loops instead of rejection
            # sampling (which would make the draw count data-dependent).
            loops = src == dst
            dst[loops] = (dst[loops] + 1) % n
            np.add.at(degrees, src, 1)
            np.add.at(degrees, dst, 1)
            pool = sorted_unique(
                np.concatenate([pool, np.minimum(src, dst) * np.int64(n) + np.maximum(src, dst)])
            )
        else:
            src = dst = np.zeros(0, dtype=np.int64)
        if deletes_per_batch and pool.size:
            take = min(deletes_per_batch, int(pool.size))
            picks = rng.choice(pool.size, size=take, replace=False)
            keys = pool[np.sort(picks)]
            del_src = keys // n
            del_dst = keys % n
            pool = np.setdiff1d(pool, keys, assume_unique=True)
            np.subtract.at(degrees, del_src, 1)
            np.subtract.at(degrees, del_dst, 1)
        else:
            del_src = del_dst = np.zeros(0, dtype=np.int64)
        deltas.append(
            EdgeDelta(
                insert_src=src,
                insert_dst=dst,
                delete_src=del_src,
                delete_dst=del_dst,
            )
        )
    return deltas
