"""sha256 of the files ``save_graph_store`` writes, for comparing two checkouts.

Saves RMAT scale 12 on 2x2x2 (threshold 24) as an mmap and a compressed
store, unweighted and weighted, and prints one line per file:
``<storage> <weights> <file> <sha256>``.  Run it from each checkout's root
with ``PYTHONPATH=src python benchmarks/results/pr34/store_bytes.py`` and
diff the outputs.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

from repro.graph.rmat import generate_rmat
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
from repro.storage import save_graph_store

root = Path(tempfile.mkdtemp(prefix="store-bytes-"))
for weights in ("unweighted", "weighted"):
    edges = generate_rmat(12, rng=3, weights_seed=5 if weights == "weighted" else None)
    graph = build_partitions(edges, ClusterLayout.from_notation("2x2x2"), 24)
    for storage in ("mmap", "compressed"):
        store = save_graph_store(graph, root / f"{storage}-{weights}", storage=storage)
        for name in ("graph.bin", "manifest.json"):
            digest = hashlib.sha256((store / name).read_bytes()).hexdigest()
            print(f"{storage:10s} {weights:10s} {name:13s} {digest}")
