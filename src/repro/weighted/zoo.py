"""Coordinator-driven analytics: hooking components and triangle counting.

Not every graph algorithm maps onto frontier super-steps.  The two
programs here reconstruct the global directed edge list from the
partitioned subgraphs once (:func:`edges_from_partitions` — the inverse
of partitioning, covering every kernel class and the compressed storage
tier) and run dense array passes on the coordinator:

* :class:`ComponentsHooking` — min-label hooking with pointer jumping,
  the classic O(m · log n) alternative to frontier label propagation;
  its labels are bit-identical to
  :class:`~repro.core.programs.ConnectedComponents` (both converge to
  the per-component minimum vertex id).
* :class:`TriangleCount` — exact global and per-vertex triangle counts
  via rank-ordered wedge checks, with bounded-memory chunking.

Both drivers synthesize the standard counter records, kept in the engine's
:class:`~repro.core.engine.RunLedger` and billed as one kernel term per step
with no filter and no communication, so bench harnesses, traces and
result plumbing treat them like any engine traversal, and both fold a live
overlay (not-yet-compacted insertions) into the edge list so mutable graphs
see the union graph.  Their whole run is coordinator work, charged to the
``kernels`` wall phase.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.netmodel import StepBill
from repro.core.engine import RunLedger
from repro.core.results import IterationRecord
from repro.utils.sorting import sorted_unique
from repro.weighted.results import HookingResult, TriangleCountResult

__all__ = ["edges_from_partitions", "ComponentsHooking", "TriangleCount"]


def edges_from_partitions(graph) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct the global directed edge list from the partitioned graph.

    Walks every kernel CSR of every GPU — nn (local slots to global
    normals), nd (local slots to delegate ids), dn (delegate ids to local
    slots) and dd (delegate ids to delegate ids) — and maps rows and
    columns back to global vertex ids.  Compressed subgraphs are decoded
    whole (:meth:`~repro.storage.codec.CompressedCSR.decode`).  Returns
    ``(src, dst)``.
    """
    # Imported here: ``import repro`` does not load the storage package.
    from repro.storage.codec import CompressedCSR

    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    for g, part in enumerate(graph.gpus):
        for kind in ("nn", "nd", "dn", "dd"):
            csr = getattr(part, kind)
            if isinstance(csr, CompressedCSR):
                csr = csr.decode()
            cols = np.asarray(csr.column_indices, dtype=np.int64)
            if cols.size == 0:
                continue
            rows = np.repeat(
                np.arange(csr.num_rows, dtype=np.int64), np.diff(csr.row_offsets)
            )
            if kind in ("nn", "nd"):
                src = part.global_ids_of_locals(rows)
            else:
                src = graph.delegate_vertices[rows]
            if kind == "nn":
                dst = cols
            elif kind == "dn":
                dst = part.global_ids_of_locals(cols)
            else:
                dst = graph.delegate_vertices[cols]
            srcs.append(np.asarray(src, dtype=np.int64))
            dsts.append(np.asarray(dst, dtype=np.int64))
    if not srcs:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(srcs), np.concatenate(dsts)


def _with_overlay(src, dst, overlay):
    if overlay is None or overlay.empty:
        return src, dst
    o_src, o_dst, _ = overlay.edges()
    return np.concatenate([src, o_src]), np.concatenate([dst, o_dst])


class ComponentsHooking:
    """Connected components by min-label hooking with pointer jumping.

    Every round hooks each edge's destination to the smaller of its own
    and its source's label (``labels[v] <= v`` always, so the labels form
    a pointer forest) and then pointer-jumps the forest flat.  Converges
    to the per-component minimum vertex id — the same answer as the
    frontier label-propagation program — in O(log n) rounds.
    """

    name = "components-hooking"
    needs_weights = False
    max_levels = None

    def drive(self, engine, init=None, overlay=None) -> HookingResult:
        if init is not None:
            raise ValueError("components-hooking does not support seeded init")
        graph = engine.graph
        opts = engine.options
        n = graph.num_vertices
        ledger = RunLedger(engine, self.name)
        src, dst = _with_overlay(*edges_from_partitions(graph), overlay)
        m = int(src.size)

        total_jumps = 0
        labels = np.arange(n, dtype=np.int64)
        level = 0
        while True:
            level += 1
            if level > opts.max_iterations:
                raise RuntimeError(
                    f"{self.name} exceeded max_iterations={opts.max_iterations}"
                )
            new = labels.copy()
            if m:
                np.minimum.at(new, dst, labels[src])
            jumps = 0
            while True:
                flat = new[new]
                if np.array_equal(flat, new):
                    break
                new = flat
                jumps += 1
            changed = int(np.count_nonzero(new != labels))
            ledger.add(
                IterationRecord(
                    iteration=level,
                    normal_frontier_size=changed,
                    delegate_frontier_size=0,
                    edges_examined={"hook": m, "jump": n * jumps},
                    directions={"nd": 0, "dn": 0, "dd": 0},
                    discovered=changed,
                ),
                StepBill([[(m + n * jumps, False)]]),
            )
            total_jumps += jumps
            if changed == 0:
                break
            labels = new

        ledger.phase("kernels", ledger.started)
        return HookingResult(labels=labels, jump_passes=total_jumps, **ledger.close())


class TriangleCount:
    """Exact triangle counting by rank-ordered wedge checks.

    The undirected edges are oriented from low to high degree-rank (ties
    by vertex id), which bounds every DAG out-degree by O(sqrt(m)); each
    wedge ``a -> x, a -> y`` (rank(x) < rank(y)) closes a triangle iff
    the DAG edge ``x -> y`` exists.  Wedges are generated in bounded
    chunks (at most :attr:`chunk_pairs` pairs at a time) so memory stays
    flat on skewed graphs.
    """

    name = "triangles"
    needs_weights = False
    max_levels = None

    #: Wedge pairs expanded per chunk.
    chunk_pairs = 1 << 22

    def drive(self, engine, init=None, overlay=None) -> TriangleCountResult:
        if init is not None:
            raise ValueError("triangle counting does not support seeded init")
        graph = engine.graph
        n = graph.num_vertices
        ledger = RunLedger(engine, self.name)
        src, dst = _with_overlay(*edges_from_partitions(graph), overlay)

        # Undirected u < v edges, deduplicated via packed keys.
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        packed = sorted_unique(lo * np.int64(n) + hi)
        lo = packed // n
        hi = packed - lo * n

        # Degree rank: ascending (degree, id); the DAG points low -> high.
        deg = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
        order = np.lexsort((np.arange(n, dtype=np.int64), deg))
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n, dtype=np.int64)

        swap = rank[lo] > rank[hi]
        a = np.where(swap, hi, lo)
        b = np.where(swap, lo, hi)

        # DAG CSR over sources, neighbors sorted by rank within each row.
        sort = np.lexsort((rank[b], a))
        a, b = a[sort], b[sort]
        dag_keys = a * np.int64(n) + b  # sorted: a ascending, b-rank within a
        dag_keys_sorted = np.sort(dag_keys)
        dag_deg = np.bincount(a, minlength=n)
        dag_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(dag_deg, out=dag_off[1:])

        pairs_per_row = dag_deg * (dag_deg - 1) // 2
        cum_pairs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(pairs_per_row, out=cum_pairs[1:])
        total_pairs = int(cum_pairs[-1])

        per_vertex = np.zeros(n, dtype=np.int64)
        triangles = 0
        start_row = 0
        while start_row < n:
            # Grow the chunk until it holds ~chunk_pairs wedge pairs.
            target = cum_pairs[start_row] + self.chunk_pairs
            end_row = int(np.searchsorted(cum_pairs, target, side="left"))
            end_row = max(end_row, start_row + 1)
            end_row = min(end_row, n)
            rows = np.arange(start_row, end_row, dtype=np.int64)
            lens = dag_deg[rows]
            active = rows[lens >= 2]
            start_row = end_row
            if active.size == 0:
                continue
            lens = dag_deg[active]
            starts = dag_off[active]
            # One entry per (row, i): the i-th neighbor paired with each
            # later neighbor of the same row.
            total_nb = int(lens.sum())
            i_idx = np.arange(total_nb, dtype=np.int64) - np.repeat(
                np.cumsum(lens) - lens, lens
            )
            reps = np.repeat(lens, lens) - 1 - i_idx
            nb_pos = np.repeat(starts, lens) + i_idx
            keep_i = reps > 0
            reps = reps[keep_i]
            nb_pos = nb_pos[keep_i]
            corner = np.repeat(np.repeat(active, lens)[keep_i], reps)
            x = np.repeat(b[nb_pos], reps)
            y_base = np.repeat(nb_pos + 1, reps)
            intra = np.arange(reps.sum(), dtype=np.int64) - np.repeat(
                np.cumsum(reps) - reps, reps
            )
            y = b[y_base + intra]
            # rank(x) < rank(y) by construction; the wedge closes iff the
            # DAG edge x -> y exists.
            wedge_keys = x * np.int64(n) + y
            pos = np.searchsorted(dag_keys_sorted, wedge_keys)
            found = (pos < dag_keys_sorted.size) & (
                dag_keys_sorted[np.minimum(pos, dag_keys_sorted.size - 1)]
                == wedge_keys
            )
            hits = int(np.count_nonzero(found))
            if hits:
                triangles += hits
                np.add.at(per_vertex, corner[found], 1)
                np.add.at(per_vertex, x[found], 1)
                np.add.at(per_vertex, y[found], 1)

        record = IterationRecord(
            iteration=1,
            normal_frontier_size=int(np.count_nonzero(dag_deg >= 2)),
            delegate_frontier_size=0,
            edges_examined={"wedges": total_pairs},
            directions={"nd": 0, "dn": 0, "dd": 0},
            discovered=triangles,
        )
        ledger.add(record, StepBill([[(max(total_pairs, 1), False)]]))
        ledger.phase("kernels", ledger.started)
        return TriangleCountResult(
            triangles=triangles, per_vertex=per_vertex, **ledger.close()
        )
