"""Golden per-step records of the engine's one super-step.

``step_records.json`` beside this file holds, for each of the cases built by
:func:`cases`, a sha256 over everything a super-step reports — per step the
frontier sizes, ``edges_examined``, ``directions``, ``discovered``,
``delegate_reduce`` and the ``float.hex()`` of the five modeled times, then
the run's ``comm_stats`` and a checksum of the answer.  It was written by
``python tests/golden/engine/step_records.py`` at the commit *before* the
super-step was made proportional to its frontier and is not regenerated: the
replay (``tests/test_golden_step_records.py``) is the proof that planning only
the kernels with work, counting pull candidates and the sparse fold /
exchange / reduce changed no observable number, on any backend and in any
storage mode.

The cases are a pruned cross of two scale-10 graphs (a WDC-like long tail and
an RMAT) x three layouts x three delegate thresholds x nine run kinds x
direction optimisation on / off, plus a hand-built graph on which some GPU
owns no edge at all.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.engine import TraversalEngine
from repro.core.options import BFSOptions
from repro.core.programs import (
    BatchedBFSLevels,
    BFSLevels,
    BFSParents,
    ConnectedComponents,
    KHopReachability,
)
from repro.dynamic import DynamicGraph, EdgeDelta
from repro.dynamic.incremental import seeded_init
from repro.graph.edgelist import EdgeList
from repro.graph.generators import wdc_like
from repro.graph.rmat import generate_rmat
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
from repro.storage import apply_storage
from repro.weighted import DeltaSteppingSSSP

GOLDEN = Path(__file__).with_name("step_records.json")

GRAPHS = ("wdc10", "rmat10")
LAYOUTS = ("1x1x1", "2x1x2", "2x2x2")
#: Delegate thresholds: nearly everything a delegate, a mixed split, and one
#: above every degree (d = 0: only the nn kernel exists).
THRESHOLDS = (1, 8, 1 << 30)
KINDS = (
    "levels", "parents", "components", "khop", "batch3", "batch70", "sssp", "overlay", "seeded",
)
#: Every fourth point of the full cross, plus these (the benchmark's own
#: long-tail configuration and the no-delegate corner on one GPU).
FORCED = {
    ("wdc10", "2x1x2", 1, "levels", True),
    ("wdc10", "2x1x2", 1, "levels", False),
    ("wdc10", "2x1x2", 1, "overlay", True),
    ("wdc10", "2x1x2", 1, "seeded", True),
    ("wdc10", "2x1x2", 1, "khop", True),
    ("wdc10", "2x1x2", 8, "parents", True),
    ("wdc10", "2x1x2", 8, "batch70", True),
    ("wdc10", "2x2x2", 1, "levels", True),
    ("rmat10", "2x1x2", 1, "levels", True),
    ("rmat10", "2x1x2", 1, "parents", True),
    ("rmat10", "2x2x2", 1, "batch70", True),
    ("rmat10", "2x2x2", 8, "parents", True),
    ("rmat10", "1x1x1", 1 << 30, "levels", True),
}
#: Cases replayed on the process backend and from mmap / compressed stores
#: as well as inline from memory.
REMOTE_EVERY = 5


def cases() -> list[tuple]:
    """``(graph, layout, threshold, kind, direction_optimized)`` per case."""
    out = [("sparse12", "2x2x2", 2, kind, True) for kind in ("levels", "parents", "batch3")]
    index = 0
    for graph in GRAPHS:
        for layout in LAYOUTS:
            for threshold in THRESHOLDS:
                for k, kind in enumerate(KINDS):
                    for do in (True, False):
                        case = (graph, layout, threshold, kind, do)
                        if (index + 2 * k + do) % 4 == 0 or case in FORCED:
                            out.append(case)
                index += 1
    return out


def case_id(case: tuple) -> str:
    graph, layout, threshold, kind, do = case
    th = "inf" if threshold >= 1 << 30 else str(threshold)
    return f"{graph}-{layout}-th{th}-{kind}-{'do' if do else 'plain'}"


def _sparse12() -> EdgeList:
    """A 12-vertex star + path: on eight GPUs some own no edge at all."""
    pairs = np.array([(0, 1), (0, 2), (0, 3), (0, 8), (8, 9), (9, 1)], dtype=np.int64)
    return EdgeList(pairs[:, 0], pairs[:, 1], 12).prepared(hash_seed=None)


class Fixtures:
    """Edge lists and partitioned graphs, built once per (graph, layout, TH,
    storage); store-backed graphs are saved under ``root`` (default: a fresh
    temporary directory per store)."""

    def __init__(self, root: Path | None = None) -> None:
        self.root = root
        self._edges: dict = {}
        self._graphs: dict = {}

    def edges(self, name: str, weighted: bool = False) -> EdgeList:
        key = (name, weighted)
        if key not in self._edges:
            seed = 3 if weighted else None
            if name == "wdc10":
                built = wdc_like(1 << 10, chain_fraction=0.1, rng=3, weights_seed=seed).prepared()
            elif name == "rmat10":
                built = generate_rmat(10, rng=7, weights_seed=seed)
            else:
                built = _sparse12()
            self._edges[key] = built
        return self._edges[key]

    def graph(
        self, name: str, layout: str, threshold: int, weighted: bool = False,
        storage: str = "memory",
    ):
        key = (name, layout, threshold, weighted, storage)
        if key not in self._graphs:
            if storage == "memory":
                self._graphs[key] = build_partitions(
                    self.edges(name, weighted), ClusterLayout.from_notation(layout), threshold
                )
            else:
                path = None if self.root is None else self.root / "-".join(map(str, key))
                self._graphs[key] = apply_storage(
                    self.graph(name, layout, threshold, weighted), storage, path=path
                )
        return self._graphs[key]


def _sources(edges: EdgeList, count: int) -> list[int]:
    """``count`` distinct non-isolated vertices, drawn once per graph size."""
    degrees = np.bincount(edges.src, minlength=edges.num_vertices)
    candidates = np.flatnonzero(degrees > 0)
    rng = np.random.default_rng(12345)
    picked = rng.choice(candidates, size=min(count, candidates.size), replace=False)
    return [int(v) for v in picked]


def _serial_levels(edges: EdgeList, source: int) -> np.ndarray:
    from repro.baselines.serial_bfs import bfs_from_edgelist

    return bfs_from_edgelist(edges, source)


def run_case(
    fixtures: Fixtures, case: tuple, backend: str = "inline", storage: str = "memory"
):
    """Execute one case and return its traversal result.  An ``overlay`` case
    builds its own dynamic graph, which lives in memory: it takes no storage."""
    name, layout, threshold, kind, do = case
    options = BFSOptions(direction_optimized=do)
    weighted = kind == "sssp"
    edges = fixtures.edges(name, weighted)
    source = _sources(edges, 1)[0]
    overlay = init = None
    if kind == "overlay":
        if storage != "memory":
            raise ValueError(f"an overlay case runs from memory, not {storage}")
        # A fresh dynamic graph per run: the overlay must stay uncompacted.
        dyn = DynamicGraph(
            edges, layout, threshold, max_overlay_fraction=1.0,
            max_degree_crossings=1 << 30,
        )
        rng = np.random.default_rng(99)
        pairs = rng.integers(0, edges.num_vertices, size=(24, 2))
        dyn.apply(EdgeDelta.inserts(pairs[pairs[:, 0] != pairs[:, 1]]))
        assert dyn.compactions == 0 and not dyn.overlay.empty
        graph, overlay = dyn.partitioned, dyn.overlay
    else:
        graph = fixtures.graph(name, layout, threshold, weighted, storage)
    if kind in ("levels", "overlay"):
        program = BFSLevels(source)
    elif kind == "parents":
        program = BFSParents(source)
    elif kind == "components":
        program = ConnectedComponents()
    elif kind == "khop":
        program = KHopReachability(source, max_hops=3)
    elif kind == "sssp":
        program = DeltaSteppingSSSP(source, delta=0.25)
    elif kind == "seeded":
        # Resume a levels run from the radius-2 ball: visited values and
        # open-row counts must be taken from the seeded state.
        program = BFSLevels(source)
        levels = _serial_levels(edges, source)
        values = np.where((levels >= 0) & (levels <= 2), levels, -1)
        init = seeded_init(graph, values, np.flatnonzero(levels == 2))
    with TraversalEngine(graph, options=options, backend=backend) as engine:
        if kind.startswith("batch"):
            return engine.run_batch(BatchedBFSLevels(_sources(edges, int(kind[5:]))))
        return engine.run(program, init=init, overlay=overlay)


def digest(result) -> dict:
    """The golden entry of one result: the sha256 plus a readable summary."""
    sha = hashlib.sha256()
    for record in result.records:
        sha.update(
            json.dumps(
                [
                    record.iteration,
                    record.normal_frontier_size,
                    record.delegate_frontier_size,
                    sorted((k, int(v)) for k, v in record.edges_examined.items()),
                    sorted((k, int(v)) for k, v in record.directions.items()),
                    int(record.discovered),
                    bool(record.delegate_reduce),
                    float(record.computation_s).hex(),
                    float(record.local_communication_s).hex(),
                    float(record.remote_normal_exchange_s).hex(),
                    float(record.remote_delegate_reduce_s).hex(),
                    float(record.elapsed_s).hex(),
                ]
            ).encode()
        )
    sha.update(json.dumps(result.comm_stats.as_dict(), sort_keys=True).encode())
    # Batched results name no answer fields: their answer is the lane matrix.
    for field in type(result).answer_fields or ("distances",):
        sha.update(np.ascontiguousarray(getattr(result, field), dtype=np.int64).tobytes())
    return {
        "sha256": sha.hexdigest(),
        "steps": len(result.records),
        "edges": int(result.total_edges_examined),
        "pulls": sum(sum(r.directions.values()) for r in result.records),
        "elapsed_ms": float(result.timing.elapsed_ms).hex(),
    }


def main() -> int:
    if GOLDEN.exists() and "--force" not in sys.argv:
        print(f"{GOLDEN} exists; it is a fixed point (pass --force to overwrite)")
        return 1
    fixtures = Fixtures()
    empty = [g for g, part in enumerate(fixtures.graph("sparse12", "2x2x2", 2).gpus)
             if part.nn.num_edges + part.nd.num_edges + part.dn.num_edges + part.dd.num_edges == 0]
    assert empty, "sparse12 must leave a GPU without edges"
    golden = {case_id(case): digest(run_case(fixtures, case)) for case in cases()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
