"""A pool worker's resident memory while backends open and close in turn.

Builds one rmat15 ``2x1x2`` graph, then ten times: opens a
``ProcessBackend(graph, workers=1)``, runs four BFS roots on it and closes
it.  After each close it prints the VmRSS of the pool's one worker (read
from ``/proc/<pid>/status``, Linux only).  Every backend exports the graph
afresh, so a worker that keeps the graphs of closed backends grows by one
graph per backend until its cache is full; one that keeps only what the
coordinator still has open stays flat.

Run from a checkout: ``PYTHONPATH=src python benchmarks/results/pr39/worker_rss.py``.
"""

from __future__ import annotations

from repro.core.engine import TraversalEngine
from repro.core.programs import BFSLevels
from repro.exec.process import ProcessBackend, _get_pool
from repro.graph.rmat import generate_rmat
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions


def vm_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS line")


def main() -> None:
    graph = build_partitions(generate_rmat(15, rng=1), ClusterLayout.from_notation("2x1x2"), 64)
    readings = []
    for round_ in range(10):
        with ProcessBackend(graph, workers=1) as backend:
            engine = TraversalEngine(graph, backend=backend)
            for source in range(4 * round_, 4 * round_ + 4):
                engine.run(BFSLevels(source))
        (worker,) = _get_pool(1)._pool
        readings.append(vm_rss_mib(worker.pid))
    print("worker VmRSS (MiB) after each closed backend:", " ".join(f"{r:.1f}" for r in readings))


if __name__ == "__main__":
    main()
