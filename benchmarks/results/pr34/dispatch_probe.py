"""What the process backend ships per task, and what its export costs.

Every task of a dispatched super-step carries the backend's graph
descriptor (``SharedGraphStore.graph_descriptor``).  For four graphs -- the
``wdc12-longtail-process`` graph (wdc_like 2^12, chain fraction 0.1, 2x1x2)
and RMAT scale 14 on 8x2x2, each from memory and from a compressed store --
this prints the descriptor's pickled size and the median microseconds of one
``pickle.dumps`` + ``pickle.loads`` of it, which is what a task adds to the
dispatch for it.  Then it prints the median milliseconds of
``SharedGraphStore(graph).close()`` over the in-memory wdc12 graph: the
shared-memory export the workload's ``setup_s`` includes.

Run from a checkout's root:
``PYTHONPATH=src python benchmarks/results/pr34/dispatch_probe.py``
"""

from __future__ import annotations

import pickle
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.exec.shm import SharedGraphStore
from repro.graph import generate_rmat, wdc_like
from repro.partition import ClusterLayout, build_partitions, suggest_threshold
from repro.storage import apply_storage


def graph_of(edges, notation):
    layout = ClusterLayout.from_notation(notation)
    return build_partitions(edges, layout, suggest_threshold(edges, layout.num_gpus))


def median_us(fn, repeats: int = 2000) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e6


def main() -> None:
    graphs = {
        "wdc12 2x1x2": graph_of(wdc_like(1 << 12, chain_fraction=0.1, rng=20180521).prepared(), "2x1x2"),
        "rmat14 8x2x2": graph_of(generate_rmat(14, rng=20180521), "8x2x2"),
    }
    root = Path(tempfile.mkdtemp(prefix="dispatch-probe-"))
    print(f"python {sys.version.split()[0]}")
    for label, memory in graphs.items():
        for storage in ("memory", "compressed"):
            graph = apply_storage(memory, storage, path=root / f"{label.replace(' ', '-')}-{storage}")
            store = SharedGraphStore(graph)
            shipped = store.graph_descriptor
            size = len(pickle.dumps(shipped, pickle.HIGHEST_PROTOCOL))
            us = median_us(lambda: pickle.loads(pickle.dumps(shipped, pickle.HIGHEST_PROTOCOL)))
            print(f"{label:13s} {storage:10s} per-task descriptor {size:6d} bytes  {us:7.2f} us dumps+loads")
            store.close()
    wdc = graphs["wdc12 2x1x2"]
    for _ in range(20):  # warm-up
        SharedGraphStore(wdc).close()
    ms = median_us(lambda: SharedGraphStore(wdc).close(), repeats=400) / 1e3
    print(f"SharedGraphStore(wdc12 2x1x2, memory) export+close: {ms:.3f} ms median of 400")


if __name__ == "__main__":
    main()
