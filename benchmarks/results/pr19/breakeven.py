"""Where does shipping a super-step to a pool start to pay?

``PYTHONPATH=src python breakeven.py SCALE LAYOUT`` runs three BFS roots on an
RMAT graph and, for every super-step, times the same plan three ways — in the
coordinator, through the thread pool, through the process pool (kernels are
pure, so a plan can be executed repeatedly) — and prints the plan's queue +
candidate rows beside the best of three timings of each.  The table behind
``repro.exec.backend.SMALL_PLAN_ROWS`` (README, "The small-plan cutoff").
"""

import sys
import time

import numpy as np

from repro import BFSLevels, BFSOptions, TraversalEngine
from repro.exec import ProcessBackend, ThreadBackend
from repro.exec.backend import ExecutionBackend
from repro.graph import generate_rmat
from repro.partition import ClusterLayout, build_partitions, suggest_threshold


def best_of(run, plan, work, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run(plan, work)
        best = min(best, time.perf_counter() - started)
    return best


def main(scale: int, notation: str) -> None:
    layout = ClusterLayout.from_notation(notation)
    edges = generate_rmat(scale, rng=20180521)
    threshold = suggest_threshold(edges, layout.num_gpus)
    graph = build_partitions(edges, layout, threshold)
    process, thread = ProcessBackend(graph, workers=2), ThreadBackend(graph, workers=2)
    log = []

    class Probe(ExecutionBackend):
        name = "probe"

        def run_super_step(self, plan):
            plan.collect_spans = False
            work = [gp for gp in plan.gpu_plans if gp.visits]
            rows = sum(
                len(spec.candidates if spec.backward else spec.queue)
                for gp in work for spec in gp.visits
            )
            log.append((rows, len(work), best_of(self._run_here, plan, work),
                        best_of(thread._dispatch, plan, work),
                        best_of(process._dispatch, plan, work)))
            return super().run_super_step(plan)

    engine = TraversalEngine(graph, options=BFSOptions(), backend=Probe(graph), kernels="numpy")
    degrees = np.asarray(graph.separation.degrees)
    for root in np.flatnonzero(degrees >= 3)[[3, 50, 500]]:
        engine.run(BFSLevels(source=int(root)))
    process.close()
    print(f"rmat{scale} {notation} TH {threshold} d {graph.num_delegates}")
    print("| rows | GPUs with work | in place µs | thread µs | process µs |")
    print("|---:|---:|---:|---:|---:|")
    for rows, gpus, here, threaded, pooled in sorted(log):
        print(f"| {rows} | {gpus} | {here * 1e6:.0f} | {threaded * 1e6:.0f} | {pooled * 1e6:.0f} |")


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2])
