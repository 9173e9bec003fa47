"""Host cost of a super-step as the virtual GPU count grows.

``PYTHONPATH=src python benchmarks/results/pr21/psweep.py [REPEATS]`` builds
RMAT scale 14 once, partitions it for each layout from 2x1x2 (p = 4) to
16x2x4 (p = 128) with the paper's suggested threshold, and runs BFS levels
(DO + BR, the inline backend) from the same four degree-weighted roots on
every layout.  Per layout it prints every repeat's host milliseconds per
super-step (traversal wall over the steps of all four roots), the best of
them, the share of the wall the nn exchange took in that best run, and the
modeled milliseconds — which must not move between two trees being
compared.
"""

from __future__ import annotations

import sys

import numpy as np

import repro
from repro.core.options import BFSOptions
from repro.graph.generators import generate_graph

LAYOUTS = ("2x1x2", "2x2x2", "4x2x2", "8x2x2", "8x2x4", "16x2x4")
SCALE = 14
GRAPH_SEED = 11
ROOTS = 4


def degree_weighted_roots(edges, count: int, seed: int = 1) -> list[int]:
    degrees = np.bincount(edges.src, minlength=edges.num_vertices).astype(np.float64)
    rng = np.random.default_rng(seed)
    picked = rng.choice(edges.num_vertices, size=count, replace=False, p=degrees / degrees.sum())
    return [int(v) for v in picked]


def main(repeats: str = "3") -> None:
    edges = generate_graph("rmat", SCALE, GRAPH_SEED)
    roots = degree_weighted_roots(edges, ROOTS)
    print(f"rmat{SCALE} (seed {GRAPH_SEED}), roots {roots}, DO+BR, inline, "
          f"best of {repeats}\n")
    print("| layout | p | TH | steps | host ms / step (every run) | best | "
          "nn exchange share | modeled ms |")
    print("|---|---:|---:|---:|---|---:|---:|---:|")
    for layout in LAYOUTS:
        session = (
            repro.session(layout=layout, options=BFSOptions(), backend="inline", kernels="numpy")
            .load(edges)
            .threshold(repro.auto)
        )
        graph = session.build()
        runs = []
        for _ in range(int(repeats)):
            results = [graph.bfs(root) for root in roots]
            steps = sum(r.iterations for r in results)
            wall = sum(r.wall_s["traversal"] for r in results)
            exchange = sum(r.wall_s["exchange"] for r in results)
            modeled = sum(r.elapsed_ms for r in results)
            runs.append((wall / steps * 1e3, exchange / wall, steps, modeled))
        best = min(runs)
        every = " / ".join(f"{run[0]:.2f}" for run in runs)
        print(f"| {layout} | {graph.graph.num_gpus} | {graph.graph.threshold} | {best[2]} | "
              f"{every} | {best[0]:.2f} | {best[1]:.0%} | {best[3]!r} |")
        graph.close()


if __name__ == "__main__":
    main(*sys.argv[1:2])
