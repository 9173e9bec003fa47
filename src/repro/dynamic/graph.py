"""The mutable graph: partitioned CSR + per-GPU adjacency overlay + versioning.

A :class:`DynamicGraph` layers mutability over the frozen build-time pipeline:

* the **clean CSR** is a regular :class:`repro.partition.PartitionedGraph`
  (degree separation, modular distributor, four subgraphs per GPU), rebuilt
  only at *compaction* time;
* insertions land in an :class:`OverlayBuffer` — an append-friendly adjacency
  side-structure categorized per GPU by the same distributor rules as the
  CSR edges (against the delegate set frozen at the last compaction).  The
  traversal engine relaxes overlay edges from every super-step's frontier,
  so queries always see the union graph without any rebuild;
* every :meth:`DynamicGraph.apply` bumps a monotonically increasing
  ``version`` (the serve layer tags cache keys with it), and *compaction* —
  re-running degree separation, the distributor and the subgraph builder on
  the current edge set — fires when the overlay exceeds a configurable
  fraction of the edges, when enough vertices crossed the degree threshold
  (delegate-set maintenance), or when a deletion touches a CSR-resident edge
  (CSR rows cannot shrink in place);
* deletions of overlay-resident edges shrink the overlay directly and never
  force a rebuild.

:class:`DynamicEngine` is the runnable face of a dynamic graph: it keeps a
:class:`repro.core.engine.TraversalEngine` bound to the *current* partitioned
CSR (transparently rebuilding it — and its execution backend — after a
compaction) and forwards every ``run``/``run_batch``/``run_many`` with the
live overlay, so :class:`repro.serve.QueryService` and the session facade
serve mutable graphs through the unchanged engine interface.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import TraversalEngine
from repro.dynamic.delta import AppliedDelta, EdgeDelta
from repro.exec.config import ExecConfig, check_kernels
from repro.graph.edgelist import EdgeList
from repro.partition.delegates import suggest_threshold
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import PartitionedGraph, build_partitions
from repro.utils.sorting import sorted_unique

__all__ = ["OverlayBuffer", "DynamicGraph", "DynamicEngine"]


class OverlayBuffer:
    """Per-GPU adjacency overlay: edges inserted since the last compaction.

    Edges are stored as parallel global-id arrays; their per-GPU assignment
    (:meth:`edges_per_gpu`, via the distributor's owner rules against the
    delegate set frozen at the last compaction) is derived on demand for
    reporting.  A lazily-rebuilt sort-by-source index serves the
    per-super-step frontier relaxation.
    """

    def __init__(self, graph: PartitionedGraph) -> None:
        self._graph = graph
        self._src = np.zeros(0, dtype=np.int64)
        self._dst = np.zeros(0, dtype=np.int64)
        # Per-edge weights ride along exactly when the clean CSR is weighted.
        self._w = np.zeros(0, dtype=np.float64) if graph.is_weighted else None
        self._sorted: tuple | None = None

    # ------------------------------------------------------------------ #
    # Contents
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Directed edges currently resident in the overlay."""
        return int(self._src.size)

    @property
    def empty(self) -> bool:
        """Whether the overlay holds no edges."""
        return self._src.size == 0

    def edges_per_gpu(self) -> np.ndarray:
        """Directed overlay edges assigned to each GPU.

        Computed on demand by the *real* edge distributor (Algorithm 1)
        against the frozen delegate set — so the balance reported is exactly
        what compaction will later materialise, and the mutation hot path
        never pays for a statistic only reports read.
        """
        if self._src.size == 0:
            return np.zeros(self._graph.num_gpus, dtype=np.int64)
        from repro.partition.distributor import distribute_edges

        assignment = distribute_edges(
            EdgeList(self._src, self._dst, self._graph.num_vertices),
            self._graph.separation,
            self._graph.layout,
        )
        return assignment.edges_per_gpu()

    def add(self, src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None = None) -> None:
        """Append directed edges (already deduplicated against the graph)."""
        if src.size == 0:
            return
        if self._w is not None:
            if weights is None:
                raise ValueError("weighted overlay requires per-edge weights on add")
            self._w = np.concatenate([self._w, np.asarray(weights, dtype=np.float64)])
        self._src = np.concatenate([self._src, src])
        self._dst = np.concatenate([self._dst, dst])
        self._sorted = None

    def remove(self, keys: np.ndarray, num_vertices: int) -> None:
        """Drop the directed edges whose ``src * n + dst`` key is in ``keys``."""
        if keys.size == 0 or self._src.size == 0:
            return
        mine = self._src * np.int64(num_vertices) + self._dst
        keep = ~np.isin(mine, keys)
        self._src = self._src[keep]
        self._dst = self._dst[keep]
        if self._w is not None:
            self._w = self._w[keep]
        self._sorted = None

    def keys(self, num_vertices: int) -> np.ndarray:
        """Sorted ``src * n + dst`` keys of the resident directed edges."""
        return np.sort(self._src * np.int64(num_vertices) + self._dst)

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The resident directed edges as ``(src, dst, weights-or-None)``.

        Read-only copies, in insertion order; coordinator-side drivers
        (PageRank contributions, the program zoo's edge reconstruction)
        fold these alongside the compacted CSR so traversals of a mutable
        graph see the union graph.
        """
        weights = self._w.copy() if self._w is not None else None
        return self._src.copy(), self._dst.copy(), weights

    # ------------------------------------------------------------------ #
    # Frontier relaxation
    # ------------------------------------------------------------------ #
    def _index(self) -> tuple:
        if self._sorted is None:
            order = np.argsort(self._src, kind="stable")
            self._sorted = (
                self._src[order],
                self._dst[order],
                self._w[order] if self._w is not None else None,
            )
        return self._sorted

    def _match(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Expand the overlay rows of the given source ids.

        Returns ``(dst, src_pos, idx, total)`` where ``dst`` lists every
        overlay destination reachable from ``ids``, ``src_pos[i]`` indexes
        the ``ids`` entry that reaches ``dst[i]`` and ``idx`` indexes the
        traversed edges in the sorted overlay (for weight lookup).
        """
        ssrc, sdst, _ = self._index()
        left = np.searchsorted(ssrc, ids, side="left")
        right = np.searchsorted(ssrc, ids, side="right")
        counts = right - left
        total = int(counts.sum())
        z = np.zeros(0, dtype=np.int64)
        if total == 0:
            return z, z, z, 0
        hot = counts > 0
        starts = left[hot]
        lens = counts[hot]
        ends = np.cumsum(lens)
        idx = np.repeat(starts, lens) + (np.arange(total, dtype=np.int64) - np.repeat(ends - lens, lens))
        src_pos = np.repeat(np.flatnonzero(hot), lens)
        return sdst[idx], src_pos, idx, total

    def propagate(
        self, src_ids: np.ndarray, src_values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Push one frontier across the overlay edges.

        Returns ``(dst, source_ids, source_values, edges_examined)`` in the
        shape :meth:`FrontierProgram.visit_value` expects: one entry per
        traversed overlay edge, parallel source ids and values attached.
        """
        if self.empty or src_ids.size == 0:
            z = np.zeros(0, dtype=np.int64)
            return z, z, z, 0
        dst, src_pos, _, total = self._match(src_ids)
        return dst, src_ids[src_pos], src_values[src_pos], total

    def propagate_weighted(
        self, src_ids: np.ndarray, src_values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """Weighted :meth:`propagate`: also returns the traversed edge weights.

        Only valid on a weighted overlay (clean CSR carries ``edge_weights``);
        used by the engine's overlay relaxation for ``needs_weights``
        programs.
        """
        if self._w is None:
            raise ValueError(
                "overlay carries no edge weights; the underlying graph is unweighted"
            )
        if self.empty or src_ids.size == 0:
            z = np.zeros(0, dtype=np.int64)
            return z, z, z, np.zeros(0, dtype=np.float64), 0
        dst, src_pos, idx, total = self._match(src_ids)
        weights = self._sorted[2][idx]
        return dst, src_ids[src_pos], src_values[src_pos], weights, total

    def propagate_batch(
        self, src_ids: np.ndarray, src_words: np.ndarray, nwords: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Push one batched frontier (lane words) across the overlay edges.

        Returns ``(dst, words, edges_examined)`` with ``dst`` deduplicated
        and ``words`` the OR of every reaching source's lane words.
        """
        if self.empty or src_ids.size == 0:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros((0, nwords), dtype=np.uint64),
                0,
            )
        dst, src_pos, _, total = self._match(src_ids)
        if total == 0:
            return dst, np.zeros((0, nwords), dtype=np.uint64), 0
        unique, inverse = np.unique(dst, return_inverse=True)
        words = np.zeros((unique.size, nwords), dtype=np.uint64)
        np.bitwise_or.at(words, inverse, src_words[src_pos])
        return unique, words, total


class DynamicGraph:
    """A mutable graph: clean partitioned CSR + overlay + version counter.

    Parameters
    ----------
    edges:
        The prepared (symmetric, deduplicated) starting edge list; copied,
        so the caller's arrays are never mutated.
    layout:
        Cluster geometry (a :class:`repro.partition.ClusterLayout` or the
        CLI's ``AxBxC`` notation).
    threshold:
        Degree threshold ``TH``; ``None`` derives the paper's suggestion
        from the starting graph and keeps it fixed across compactions (a
        moving threshold would make update streams non-comparable).
    max_overlay_fraction:
        Compact once the overlay exceeds this fraction of all directed
        edges.
    max_degree_crossings:
        Compact once this many vertices sit on the wrong side of the degree
        threshold relative to the frozen delegate set (delegate-set
        maintenance; crossings are correctness-neutral but erode the
        degree-separation performance contract).  ``None`` scales the budget
        with the graph: ``max(64, n / 64)``.
    partitioned:
        Adopt an existing partitioning of ``edges`` (must match ``layout``
        and ``threshold``) instead of rebuilding — the session facade uses
        this to turn an already-built static graph dynamic for free.
    """

    def __init__(
        self,
        edges: EdgeList,
        layout: ClusterLayout | str,
        threshold: int | None = None,
        *,
        max_overlay_fraction: float = 0.05,
        max_degree_crossings: int | None = None,
        partitioned: PartitionedGraph | None = None,
        weights_seed: int = 0,
    ) -> None:
        layout = ClusterLayout.from_notation(layout)
        if not 0.0 < max_overlay_fraction <= 1.0:
            raise ValueError(
                f"max_overlay_fraction must be in (0, 1], got {max_overlay_fraction}"
            )
        if max_degree_crossings is None:
            max_degree_crossings = max(64, edges.num_vertices // 64)
        if max_degree_crossings < 1:
            raise ValueError(
                f"max_degree_crossings must be >= 1, got {max_degree_crossings}"
            )
        self.layout = layout
        self.edges = edges.copy()
        self.threshold = (
            int(threshold)
            if threshold is not None
            else suggest_threshold(self.edges, layout.num_gpus)
        )
        self.max_overlay_fraction = float(max_overlay_fraction)
        self.max_degree_crossings = int(max_degree_crossings)
        #: Seed of the edge-keyed weights derived for weighted insertions
        #: that carry no explicit weight (must match the generator's
        #: ``weights_seed`` for the derived weights to line up).
        self.weights_seed = int(weights_seed)
        self.version = 0
        self.partition_epoch = 0
        self.compactions = 0
        n = self.edges.num_vertices
        self._keys = np.sort(self.edges.src * np.int64(n) + self.edges.dst)
        if self._keys.size and np.any(self._keys[1:] == self._keys[:-1]):
            raise ValueError(
                "edges contain duplicates; pass a prepared() edge list"
            )
        self.degrees = np.bincount(self.edges.src, minlength=n).astype(np.int64)
        if partitioned is not None:
            if partitioned.threshold != self.threshold or partitioned.layout != layout:
                raise ValueError(
                    "adopted partitioning disagrees with the requested "
                    f"layout/threshold (TH={partitioned.threshold} vs {self.threshold})"
                )
            self.partitioned = partitioned
            self.overlay = OverlayBuffer(partitioned)
        else:
            self._compact_now()
            self.partition_epoch = 0  # the initial build is not a compaction
            self.compactions = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Vertex universe size (fixed for the lifetime of the graph)."""
        return self.edges.num_vertices

    @property
    def num_directed_edges(self) -> int:
        """Directed edges currently present (CSR + overlay)."""
        return self.edges.num_edges

    @property
    def overlay_fraction(self) -> float:
        """Overlay share of all directed edges (the compaction trigger)."""
        total = self.edges.num_edges
        return self.overlay.num_edges / total if total else 0.0

    @property
    def pending_crossings(self) -> int:
        """Vertices on the wrong side of TH relative to the frozen delegates."""
        now_delegate = self.degrees > self.threshold
        return int(np.count_nonzero(now_delegate != self.partitioned.separation.is_delegate))

    @staticmethod
    def _in_sorted(sorted_keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Membership of ``values`` in a sorted unique key array, by bisection."""
        if sorted_keys.size == 0 or values.size == 0:
            return np.zeros(values.size, dtype=bool)
        pos = np.searchsorted(sorted_keys, values)
        return (pos < sorted_keys.size) & (
            sorted_keys[np.minimum(pos, sorted_keys.size - 1)] == values
        )

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``u -> v`` is currently present."""
        key = np.int64(u) * np.int64(self.num_vertices) + np.int64(v)
        pos = np.searchsorted(self._keys, key)
        return bool(pos < self._keys.size and self._keys[pos] == key)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def apply(self, delta: EdgeDelta, symmetrize: bool = True) -> AppliedDelta:
        """Apply one delta batch; returns the effective changes.

        Insertions already present and deletions of absent edges are dropped
        (idempotent updates); self-loops are rejected by dropping; with
        ``symmetrize`` (the default) every directed update also applies its
        reverse, keeping the graph symmetric as the engine requires.
        """
        n = self.num_vertices
        weighted = self.edges.weights is not None
        ins_s, ins_d = delta.insert_src, delta.insert_dst
        ins_w = delta.insert_weights
        if ins_w is not None and not weighted:
            raise ValueError(
                "delta carries insert weights but the graph is unweighted"
            )
        del_s, del_d = delta.delete_src, delta.delete_dst
        for arr in (ins_s, ins_d, del_s, del_d):
            if arr.size and arr.max() >= n:
                raise ValueError(f"edge endpoint {int(arr.max())} out of range [0, {n})")
        if symmetrize:
            ins_s, ins_d = np.concatenate([ins_s, ins_d]), np.concatenate([ins_d, ins_s])
            del_s, del_d = np.concatenate([del_s, del_d]), np.concatenate([del_d, del_s])
            if ins_w is not None:
                ins_w = np.concatenate([ins_w, ins_w])
        keep = ins_s != ins_d
        ins_s, ins_d = ins_s[keep], ins_d[keep]
        if ins_w is not None:
            ins_w = ins_w[keep]

        ins_keys = sorted_unique(ins_s * np.int64(n) + ins_d)
        ins_keys = ins_keys[~self._in_sorted(self._keys, ins_keys)]
        del_keys = sorted_unique(del_s * np.int64(n) + del_d)
        del_keys = del_keys[self._in_sorted(self._keys, del_keys)]

        overlay_keys = self.overlay.keys(n)
        del_in_overlay = del_keys[np.isin(del_keys, overlay_keys, assume_unique=True)]
        del_in_csr = del_keys[~np.isin(del_keys, overlay_keys, assume_unique=True)]

        # ---- apply to the canonical edge list + degree sequence ---------- #
        new_src = ins_keys // n
        new_dst = ins_keys % n
        new_w = None
        if weighted:
            if ins_w is not None and ins_w.size:
                # Min-merge the proposal weights per directed key (duplicate
                # proposals behave like the build-time dedup), then pick the
                # weight of each effective insertion.
                prop_keys = ins_s * np.int64(n) + ins_d
                order = np.argsort(prop_keys, kind="stable")
                sk, sw = prop_keys[order], ins_w[order]
                starts = np.flatnonzero(
                    np.concatenate([np.ones(1, dtype=bool), sk[1:] != sk[:-1]])
                )
                new_w = np.minimum.reduceat(sw, starts)[
                    np.searchsorted(sk[starts], ins_keys)
                ]
            else:
                from repro.graph.weights import edge_keyed_weights

                new_w = edge_keyed_weights(new_src, new_dst, n, seed=self.weights_seed)
        src, dst = self.edges.src, self.edges.dst
        w = self.edges.weights
        if del_keys.size:
            edge_keys = src * np.int64(n) + dst
            keep = ~np.isin(edge_keys, del_keys)
            src, dst = src[keep], dst[keep]
            if w is not None:
                w = w[keep]
        if new_src.size:
            src = np.concatenate([src, new_src])
            dst = np.concatenate([dst, new_dst])
            if w is not None:
                w = np.concatenate([w, new_w])
        self.edges = EdgeList(src, dst, n, weights=w)
        # Both sides are sorted and unique, so the key set updates by sorted
        # merge/drop instead of union1d's full re-hash of all m keys.
        if del_keys.size:
            keep = np.ones(self._keys.size, dtype=bool)
            keep[np.searchsorted(self._keys, del_keys)] = False
            self._keys = self._keys[keep]
        if ins_keys.size:
            self._keys = np.insert(
                self._keys, np.searchsorted(self._keys, ins_keys), ins_keys
            )
        if new_src.size:
            np.add.at(self.degrees, new_src, 1)
        if del_keys.size:
            np.subtract.at(self.degrees, del_keys // n, 1)

        # ---- overlay bookkeeping ----------------------------------------- #
        self.overlay.add(new_src, new_dst, new_w)
        self.overlay.remove(del_in_overlay, n)
        self.version += 1

        compacted = False
        reason = ""
        if del_in_csr.size:
            # CSR rows cannot shrink in place; a structural delete forces the
            # rebuild immediately so traversals never see a ghost edge.
            compacted, reason = True, "csr-delete"
        elif self.overlay_fraction > self.max_overlay_fraction:
            compacted, reason = True, "overlay-fraction"
        elif self.pending_crossings > self.max_degree_crossings:
            compacted, reason = True, "degree-crossings"
        if compacted:
            self._compact_now()
        return AppliedDelta(
            insert_src=new_src,
            insert_dst=new_dst,
            delete_src=del_keys // n,
            delete_dst=del_keys % n,
            version=self.version,
            compacted=compacted,
            compact_reason=reason,
            insert_weights=new_w,
        )

    def compact(self) -> None:
        """Force a compaction: rebuild the clean CSR from the current edges."""
        self._compact_now()

    def _compact_now(self) -> None:
        self.partitioned = build_partitions(self.edges, self.layout, self.threshold)
        self.overlay = OverlayBuffer(self.partitioned)
        self.partition_epoch += 1
        self.compactions += 1

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"DynamicGraph(n={self.num_vertices}, m={self.num_directed_edges}, "
            f"version={self.version}, overlay={self.overlay.num_edges}, "
            f"compactions={self.compactions})"
        )


class DynamicEngine:
    """A traversal engine over a :class:`DynamicGraph`.

    Presents the same running surface as :class:`TraversalEngine`
    (``run`` / ``run_batch`` / ``run_each`` / ``run_many`` / ``options`` / backend
    management) while forwarding the live overlay into every run and
    transparently rebinding to the freshly-partitioned CSR after a
    compaction — including re-resolving the execution backend, whose
    shared-memory export of the old CSR would otherwise go stale.
    ``backend`` is resolved once, on entry, into :attr:`config` (an
    adopted ``engine`` brings its own); ``kernels`` is
    :class:`TraversalEngine`'s one-value keyword.
    """

    def __init__(
        self,
        dynamic: DynamicGraph,
        options=None,
        hardware=None,
        backend=None,
        kernels=None,
        engine: TraversalEngine | None = None,
    ) -> None:
        check_kernels(kernels)
        self.dynamic = dynamic
        self._options = options
        self._hardware = hardware
        self._engine: TraversalEngine | None = None
        self._engine_epoch = -1
        if engine is not None:
            if engine.graph is not dynamic.partitioned:
                raise ValueError("adopted engine is not bound to the dynamic graph's CSR")
            self._engine = engine
            self._engine_epoch = dynamic.partition_epoch
            self._options = engine.options
            self._hardware = engine.hardware
            config = engine.config
        else:
            config = ExecConfig.resolve(backend=backend)
        #: The resolved run configuration every rebuilt engine runs on.
        self.config = self._checked(config)

    @staticmethod
    def _checked(config: ExecConfig) -> ExecConfig:
        """Reject live backend instances: they cannot follow a compaction.

        A backend object is bound to the CSR it was built over (the process
        backend's shared-memory export, the inline backend's graph
        reference); after a compaction it would silently keep traversing the
        *old* graph.  Backend names re-resolve against the fresh CSR, so
        only those are accepted.
        """
        if not isinstance(config.backend, str):
            raise ValueError(
                "DynamicEngine cannot use a live backend instance — it stays "
                "bound to the pre-compaction graph; pass the backend name "
                f"({config.backend.name!r}) instead"
            )
        return config

    # ------------------------------------------------------------------ #
    # Engine plumbing
    # ------------------------------------------------------------------ #
    def _resolve(self) -> TraversalEngine:
        if self._engine is None or self._engine_epoch != self.dynamic.partition_epoch:
            if self._engine is not None:
                self._engine.close()
            self._engine = TraversalEngine(
                self.dynamic.partitioned,
                options=self._options,
                hardware=self._hardware,
                backend=self.config.backend,
            )
            self._engine_epoch = self.dynamic.partition_epoch
        return self._engine

    @property
    def graph(self) -> PartitionedGraph:
        """The current clean CSR (changes object identity on compaction)."""
        return self.dynamic.partitioned

    @property
    def graph_root(self) -> DynamicGraph:
        """The stable identity object for cache keying (never changes)."""
        return self.dynamic

    @property
    def graph_version(self) -> int:
        """Monotonic mutation counter (cache keys must include it)."""
        return self.dynamic.version

    @property
    def options(self):
        return self._resolve().options

    @property
    def backend_name(self) -> str:
        return self.config.backend_name

    def use_backend(self, backend) -> "DynamicEngine":
        self.config = self._checked(self.config.override(backend=backend))
        if self._engine is not None:
            self._engine.use_backend(self.config.backend)
        return self

    def close(self) -> None:
        if self._engine is not None:
            self._engine.close()

    def __enter__(self) -> "DynamicEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Execution (overlay always rides along)
    # ------------------------------------------------------------------ #
    def run(self, program, init=None):
        """Run one frontier program over the current graph + overlay."""
        return self._resolve().run(program, init=init, overlay=self.dynamic.overlay)

    def run_batch(self, program):
        """Run one batched program over the current graph + overlay."""
        return self._resolve().run_batch(program, overlay=self.dynamic.overlay)

    def run_each(self, programs):
        """Yield each program's result over the current graph + overlay."""
        return self._resolve().run_each(programs, overlay=self.dynamic.overlay)

    def run_many(self, programs, batch_size=None):
        """Run several programs (batched where possible) over graph + overlay."""
        return self._resolve().run_many(
            programs, batch_size=batch_size, overlay=self.dynamic.overlay
        )

    # ------------------------------------------------------------------ #
    # Mutation passthrough
    # ------------------------------------------------------------------ #
    def apply_delta(self, delta: EdgeDelta, symmetrize: bool = True) -> AppliedDelta:
        """Apply one update batch to the underlying dynamic graph."""
        return self.dynamic.apply(delta, symmetrize=symmetrize)
