"""Faults end in a typed error within a bounded time, never a hang or a leak.

A worker process of :class:`repro.exec.ProcessBackend` that dies mid-run
(native code can kill one) must end the call in one ``RuntimeError`` naming
the runs that never returned, with the backend's shared-memory segment
unlinked and the pool's processes gone.  The scenario runs in a child
interpreter under a timeout, because the failure this guards against is the
coordinator waiting forever.
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

#: A campaign of four roots dealt to a two-worker fork pool, in which the
#: worker that runs the root ``DOOMED`` SIGKILLs itself after that run's
#: first super-step.
WORKER_KILLS_ITSELF = r"""
import json, multiprocessing, os, signal, time
from repro.core import engine as engine_module
from repro.core.campaign import run_campaign
from repro.exec import process
from repro.graph.rmat import generate_rmat
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions

DOOMED = 40
step_loop = engine_module.TraversalEngine.step_loop


def dying(self, program, state, *args, **kwargs):
    if getattr(program, "source", None) == DOOMED:
        kwargs["settle"] = lambda: os.kill(os.getpid(), signal.SIGKILL)
    return step_loop(self, program, state, *args, **kwargs)


engine_module.TraversalEngine.step_loop = dying  # the fork pool below inherits it
graph = build_partitions(generate_rmat(8, rng=3), ClusterLayout(num_ranks=2, gpus_per_rank=2), 4)
backend = process.ProcessBackend(graph, workers=2)  # fork, where offered
engine = engine_module.TraversalEngine(graph, backend=backend)
started = time.perf_counter()
try:
    run_campaign(engine, [3, 17, DOOMED, 25])
    error = None
except RuntimeError as caught:
    error = str(caught)
name = backend.store._graph_segment.name
print(json.dumps({
    "error": error,
    "seconds": time.perf_counter() - started,
    "segment": name,
    "leaked": os.path.exists("/dev/shm/" + name.lstrip("/")),
    "pools": len(process._POOLS),
    "children": len(multiprocessing.active_children()),
}))
"""


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or not os.path.isdir("/dev/shm"),
    reason="needs the fork start method and POSIX shared memory in /dev/shm",
)
def test_worker_killed_mid_run_raises_naming_the_run():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_BACKEND", None)
    # At the parent this scenario waits forever; the timeout turns that into a failure.
    done = subprocess.run(
        [sys.executable, "-c", WORKER_KILLS_ITSELF],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["error"] is not None and "from source 40" in report["error"]
    assert report["seconds"] < 10
    assert report["segment"] and not report["leaked"]
    assert report["pools"] == 0 and report["children"] == 0
