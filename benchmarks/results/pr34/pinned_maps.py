"""Does a dropped store-backed graph stay mapped?

Five cycles of: ``external_build`` (RMAT scale 16 in 2^18-edge chunks,
compressed, 2x2x2) into a new directory, ``load_graph_store``, eight inline
BFS roots, drop the graph and engine, ``gc.collect()``, remove the store --
what the ``stream16-build-compressed`` workload does once per set-up.  After each cycle it prints the process's VmRSS and how many
``graph.bin`` mappings /proc/self/maps still lists.  Linux only.

Run from a checkout's root:
``PYTHONPATH=src python benchmarks/results/pr34/pinned_maps.py``
"""

from __future__ import annotations

import gc
import shutil
import tempfile
from pathlib import Path

from repro import BFSLevels, TraversalEngine
from repro.graph.rmat import generate_rmat_edge_chunks
from repro.partition import ClusterLayout
from repro.storage import external_build, load_graph_store


def vm_rss_mib() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS line")


def mapped_segments() -> int:
    return sum("graph.bin" in line for line in Path("/proc/self/maps").read_text().splitlines())


root = Path(tempfile.mkdtemp(prefix="pinned-maps-"))
layout = ClusterLayout.from_notation("2x2x2")
print(f"start: VmRSS {vm_rss_mib():6.1f} MiB")
for cycle in range(1, 6):
    store = root / f"store-{cycle}"
    chunks = generate_rmat_edge_chunks(16, seed=20180521, chunk_edges=1 << 18)
    external_build(chunks, 1 << 16, layout, store, storage="compressed", block_edges=1 << 18)
    size = (store / "graph.bin").stat().st_size
    graph = load_graph_store(store)
    engine = TraversalEngine(graph)
    for root_vertex in range(8):
        engine.run(BFSLevels(source=root_vertex))
    engine.close()
    del graph, engine
    gc.collect()
    shutil.rmtree(store)
    print(
        f"cycle {cycle}: store {size / 2**20:5.1f} MiB  VmRSS {vm_rss_mib():6.1f} MiB  "
        f"graph.bin mappings {mapped_segments()}"
    )
shutil.rmtree(root, ignore_errors=True)
