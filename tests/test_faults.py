"""Faults end in a typed error within a bounded time, never a hang or a leak.

A worker process of :class:`repro.exec.ProcessBackend` that dies mid-step
(native code can kill one) must end the traversal in one ``RuntimeError``
naming the GPU whose kernels were lost, with the backend's shared-memory
segments unlinked.  The scenario runs in a child interpreter under a
timeout, because the failure this guards against is the coordinator waiting
forever.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: One super-step of a small graph, dispatched to a two-worker fork pool in
#: which GPU 1's task SIGKILLs its own worker.
WORKER_KILLS_ITSELF = r"""
import json, os, signal, time
from repro.exec import backend as backend_module, process
from repro.core.engine import TraversalEngine
from repro.core.programs import BFSLevels
from repro.graph.rmat import generate_rmat
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions

backend_module.SMALL_PLAN_ROWS = 0  # dispatch every step, however small
run_here = process.execute_gpu_plan


def dying(gpu_plan, *args, **kwargs):
    if gpu_plan.gpu == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return run_here(gpu_plan, *args, **kwargs)


process.execute_gpu_plan = dying  # the fork pool below inherits it
graph = build_partitions(generate_rmat(8, rng=3), ClusterLayout(num_ranks=2, gpus_per_rank=2), 4)
backend = process.ProcessBackend(graph, workers=2)  # fork, where offered
engine = TraversalEngine(graph, backend=backend)
started = time.perf_counter()
try:
    engine.run(BFSLevels(int(graph.gpus[1].owned_global_ids()[0])))
    error = None
except RuntimeError as caught:
    error = str(caught)
store = backend.store
names = [s.name for s in (store._graph_segment, store._dense_segment) if s is not None]
print(json.dumps({
    "error": error,
    "seconds": time.perf_counter() - started,
    "segments": names,
    "leaked": [n for n in names if os.path.exists("/dev/shm/" + n.lstrip("/"))],
    "pools": len(process._POOLS),
}))
"""


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or not os.path.isdir("/dev/shm"),
    reason="needs the fork start method and POSIX shared memory in /dev/shm",
)
def test_worker_killed_mid_step_raises_naming_the_gpu():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_BACKEND", None)
    # At the parent this scenario waits forever; the timeout turns that into a failure.
    done = subprocess.run(
        [sys.executable, "-c", WORKER_KILLS_ITSELF],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["error"] is not None and "GPU 1" in report["error"]
    assert report["seconds"] < 10
    assert report["segments"] and report["leaked"] == []
    assert report["pools"] == 0
