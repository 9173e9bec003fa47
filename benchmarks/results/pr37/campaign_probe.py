"""A 64-root rmat16 campaign, inline against the process backend's root grain.

Builds the store ``repro build --scale 16 --layout 2x2x2 --threshold 64
--storage mmap`` into a temporary directory, opens it with
``load_graph_store``, draws 64 roots with ``default_rng(3).choice(n, 64)``
and times ``run_campaign`` over them on an inline engine and on an engine
over ``ProcessBackend(graph, workers=2)``: one untimed warm-up of each (the
process one is where each worker attaches the store and builds its engine),
then ``--pairs`` alternating timed pairs.  Every run's per-root
``(elapsed_ms.hex(), iterations, total_edges_examined)`` must equal the
inline run's, root for root.

    PYTHONPATH=src python benchmarks/results/pr37/campaign_probe.py [--pairs 5]
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.campaign import run_campaign
from repro.core.engine import TraversalEngine
from repro.exec import ProcessBackend
from repro.exec.process import shutdown_pools
from repro.storage import load_graph_store


def per_root(campaign) -> list:
    return [(r.timing.elapsed_ms.hex(), r.iterations, r.total_edges_examined) for r in campaign]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        store = Path(scratch) / "rmat16"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "build", "--scale", "16", "--layout", "2x2x2",
             "--threshold", "64", "--storage", "mmap", "--out", str(store)],
            check=True, stdout=subprocess.DEVNULL,
        )
        graph = load_graph_store(store)
        roots = np.random.default_rng(3).choice(graph.num_vertices, 64)
        backend = ProcessBackend(graph, workers=2)
        engines = {
            "inline": TraversalEngine(graph, backend="inline"),
            "process": TraversalEngine(graph, backend=backend),
        }
        reference = None
        walls: dict = {name: [] for name in engines}
        for attempt in range(args.pairs + 1):
            for name, engine in engines.items():
                started = time.perf_counter()
                records = per_root(run_campaign(engine, roots))
                wall = time.perf_counter() - started
                reference = reference if reference is not None else records
                assert records == reference, f"{name} per-root records differ"
                label = "warm-up" if attempt == 0 else f"pair {attempt}"
                print(f"{label:8s} {name:8s} {wall:7.3f} s")
                if attempt:
                    walls[name].append(wall)
        backend.close()
        shutdown_pools()
    inline, process = (statistics.median(walls[name]) for name in ("inline", "process"))
    ratios = [p / i for i, p in zip(walls["inline"], walls["process"])]
    print(f"median inline {inline:.3f} s, process {process:.3f} s, "
          f"process / inline {process / inline:.3f} (pairs {min(ratios):.3f}-{max(ratios):.3f}); "
          f"per-root records equal in all {2 * (args.pairs + 1)} runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
