"""Thread backend against inline, on the benchmark's own workloads.

``python thread_ab.py CHECKOUT OUT.jsonl SEED PAIRS WORKLOAD...`` runs
alternating pairs of ``benchmarks/perf/run.py --seed SEED --seconds 8
--trace 0`` in CHECKOUT: one side as the workload defines it (side
``parent``, the inline backend), the other with every engine the workload
builds on the inline backend built on ``backend="thread"`` instead (side
``change``).  Odd pairs run inline first, even pairs thread first; one run
at a time, no ``REPRO_*`` variable set.  Each run's JSON result line is
appended to OUT in the shape ``../pr26/claim.py`` reads, so

    python ../pr26/claim.py OUT.jsonl traverse_wall_s WORKLOAD

prints the thread side's wins and the median gap against the inline IQR.

Nothing under ``benchmarks/perf/`` is edited: the child imports
``workloads.py`` through ``run.py`` unchanged and only swaps the engine
classes ``adapter.py`` re-exports for subclasses that replace the backend
name ``"inline"`` with ``"thread"``.  A live backend (the process
workload's ``ProcessBackend``) passes through untouched.

``python thread_ab.py --child CHECKOUT BACKEND RUN_ARGS...`` is the one
run the pair loop starts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path


def child(checkout: Path, backend: str, argv: list) -> int:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "benchmarks" / "perf")]
    import adapter as A
    import run

    def override(base):
        class Override(base):
            def __init__(self, graph, *args, **kwargs):
                if kwargs.get("backend", "inline") == "inline":
                    kwargs["backend"] = backend
                super().__init__(graph, *args, **kwargs)

        Override.__name__ = base.__name__
        return Override

    if backend != "inline":
        A.TraversalEngine = override(A.TraversalEngine)
        A.DynamicEngine = override(A.DynamicEngine)
    return run.main(argv)


def pairs(checkout: Path, out: Path, seed: int, count: int, workloads: list) -> None:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for pair in range(1, count + 1):
        for workload in workloads:
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                backend = "inline" if side == "parent" else "thread"
                command = [
                    sys.executable, __file__, "--child", str(checkout), backend,
                    "--workload", workload, "--seed", str(seed), "--seconds", "8",
                    "--trace", "0",
                ]
                done = subprocess.run(
                    command, cwd=checkout, env=env, capture_output=True, text=True
                )
                line = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "null"
                record = {"pair": pair, "seed": seed, "workload": workload, "side": side,
                          "backend": backend, "result": json.loads(line)}
                with out.open("a") as handle:
                    handle.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    if sys.argv[1] == "--child":
        sys.exit(child(Path(sys.argv[2]).resolve(), sys.argv[3], sys.argv[4:]))
    pairs(Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve(), int(sys.argv[3]),
          int(sys.argv[4]), sys.argv[5:])
