"""The repo benchmark: seven workloads, end-to-end and per-layer metrics.

Driver form (one workload, the contract of ``BENCHMARK.json``)::

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name and unit, then one JSON object as the last line:
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
untraced passes, adds harness probes and one pass under ``repro.obs.Tracer``,
and reports the per-layer metrics.  Full-set form::

    python3 benchmarks/perf/run.py [--workload NAME]... [--seed N] [--smoke] --out FILE

runs each workload in its own ``--trace 1`` child process, one at a time, and
writes one JSON result with both metric families (end-to-end numbers from the
child's untraced passes) that ``compare.py`` reads.

Run shape of one child: set-up x ``setups`` (first = cold, followed by the
untimed reference pass and the ``peak_rss_mb`` sample; ``setup_s`` = median of
the rest) -> untimed warm-up -> ``P`` timed passes over one fixed operation
list, tracing off -> [``--trace 1``: probes and one traced pass] -> oracles ->
report.  ``P`` is ``--seconds`` over the workload's nominal pass time: the same
count in both trace modes and on a faster or slower program.  Only ``run_op``
is ever inside a timer; each operation is charged its best wall over the ``P``
passes (README, "Steadiness").
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

from perfstats import rate, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Scratch (stores, tempfile) stays inside the checkout and is removed at exit.
WORK_ROOT = ROOT / ".bench_work"
#: Ambient execution axes the child must not inherit: every axis is explicit.
AMBIENT_ENV = ("REPRO_BACKEND", "REPRO_KERNELS", "REPRO_STORAGE", "REPRO_TRACE", "REPRO_MP_START")


class Spans:
    """Harness spans of one set-up: name, start, end and parent, in memory."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
        }
        self._open.append(len(self.records))
        self.records.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, seconds: float) -> None:
        """A child of the open span whose duration the program reported itself."""
        parent = self._open[-1] if self._open else None
        self.records.append({"name": name, "start": None, "end": None,
                             "seconds": float(seconds), "parent": parent})

    def compact(self) -> list:
        """``[name, parent index, start since the first span, seconds]`` rows."""
        origin = self.records[0]["start"]
        rows = []
        for r in self.records:
            start = None if r["start"] is None else round(r["start"] - origin, 6)
            seconds = r["seconds"] if r["start"] is None else r["end"] - r["start"]
            rows.append([r["name"], r["parent"], start, round(seconds, 6)])
        return rows

    def totals(self) -> dict:
        out: dict[str, float] = {}
        for record in self.records:
            seconds = record.get("seconds")
            if seconds is None:
                seconds = record["end"] - record["start"]
            out[record["name"]] = out.get(record["name"], 0.0) + seconds
        return out


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # fails, rightly, while another run has scratch there
    except OSError:
        pass


def child_pids() -> list[int]:
    """Live or unreaped children of this process (Linux ``/proc``)."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == me:
                pids.append(int(entry.name))
    return pids


def stop_children(A) -> None:
    """Stop every process the run started and wait until each has ended.

    The program stops its worker pool at ``atexit`` and leaves
    ``multiprocessing``'s resource tracker (started with the first shm
    segment) to notice the coordinator's exit: both then outlive this process
    by a moment, the tracker as an orphan.  A run ends them itself, the pool
    first (forked workers hold the tracker's pipe), and reaps them.
    """
    from multiprocessing import resource_tracker

    A.shutdown_pools()
    resource_tracker._resource_tracker._stop()  # closes its pipe, then waitpid()
    for pid in child_pids():  # nothing is expected here
        print(f"run.py: killing leftover child {pid}", file=sys.stderr)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass


# --------------------------------------------------------------------------- #
# One pass over the operation list
# --------------------------------------------------------------------------- #
def run_pass(workload, ops: list, keep: bool) -> dict:
    """Execute ``ops`` once; time each ``run_op``, digest answers untimed."""
    ctx = workload.begin_pass()
    walls: list[float] = []
    digests: list = []
    raised = 0
    gc.collect()
    gc.disable()  # a collection inside one operation would be charged to it
    try:
        for index, op in enumerate(ops):
            started = time.perf_counter()
            try:
                result = workload.run_op(ctx, op)
            except Exception:  # an operation that raises is a failed operation
                walls.append(time.perf_counter() - started)
                traceback.print_exc()
                raised += 1
                digests.append(None)
                continue
            walls.append(time.perf_counter() - started)
            digests.append(workload.digest(ctx, index, op, result, keep))
    finally:
        gc.enable()
    totals: dict[str, float] = {}
    for digest in digests:
        if digest is None:
            continue
        for counters in digest.traversals + [digest.extra]:
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value
    return {
        "walls": walls,
        "wall": sum(walls),
        "digests": digests,
        "raised": raised,
        "checksums": [d.checksum if d is not None else None for d in digests],
        "edges": sum(d.edges for d in digests if d is not None),
        "totals": totals,
        "layer": workload.end_pass(ctx),
    }


def pass_count(workload, seconds: float) -> int:
    """Timed passes ``seconds`` buy: fixed work, whatever the program's speed."""
    return 1 if workload.smoke else max(2, round(seconds / workload.pass_s))


# --------------------------------------------------------------------------- #
# One workload, in this process
# --------------------------------------------------------------------------- #
def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, spec: dict):
    """Run one workload; returns ``(envelope, detail)``."""
    import adapter as A
    from workloads import WORKLOADS

    workdir = WORK_ROOT / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir)
    workload = WORKLOADS[name](seed, smoke, workdir)
    try:
        run = execute(A, workload, seconds, trace)
        end_to_end = end_to_end_metrics(run)
        layer = layer_metrics(A, run, end_to_end, spec)
    finally:
        workload.teardown()
        remove_scratch(workdir)
        stop_children(A)

    values = {**end_to_end, **layer}
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    envelope = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": int(run["failed"]),
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared
        },
    }
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": envelope["correct"],
        "attempted": envelope["attempted"],
        "failed": envelope["failed"],
        "passes": len(run["passes"]),
        "operations_per_pass": len(run["ops"]),
        # Units, directions and bounds are those of BENCHMARK.json.
        "metrics": {m["name"]: float(values[m["name"]])
                    for m in spec["end_to_end"] + spec["per_layer"]},
        # The samples behind the two host timings, so a reader (compare.py)
        # sees this run's own noise: warm set-ups, and whole-pass walls.
        "samples": {
            "setup_s": summarize(run["setup_walls"][1:]),
            "pass_wall_s": summarize(p["wall"] for p in run["passes"]),
        },
        "setup_spans": run["setup_spans"][-1].compact(),
    }
    return envelope, detail


def execute(A, workload, seconds: float, trace: bool) -> dict:
    """Everything that touches the program: set-ups, passes, probes, oracles."""
    # 1. set-up, several times: the last one's graph is the one measured.  The
    # first (cold) one is followed by the reference pass, untimed: its answers
    # are what the oracles check and every later pass must reproduce, and the
    # RSS high-water after it is that of one generate -> traverse cycle (later
    # set-ups move it by what the allocator kept of the earlier ones).
    setup_walls: list[float] = []
    setup_spans: list[Spans] = []
    for index in range(2 if workload.smoke else workload.setups):
        spans = Spans()
        # Free the previous graph first (it holds reference cycles): otherwise
        # when it goes is left to the collector's timing.
        workload.teardown()
        gc.collect()
        started = time.perf_counter()
        workload.setup(spans)
        setup_walls.append(time.perf_counter() - started)
        setup_spans.append(spans)
        if index == 0:
            ops = workload.operations()
            reference = run_pass(workload, ops, keep=True)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # 2. warm-up of the last set-up's engine (untimed), 3. P timed passes.
    run_pass(workload, ops[: max(1, len(ops) // 8)], keep=False)
    passes = [run_pass(workload, ops, keep=False) for _ in range(pass_count(workload, seconds))]

    # 4. trace mode: probes, then one pass with repro.obs switched on.
    probe_s: dict[str, float] = {}
    probed: dict = {}
    traced: list[dict] = []
    events: list[dict] = []
    if trace:
        def probe(label, fn, *args):
            started = time.perf_counter()
            out = fn(*args)
            probe_s[label] = time.perf_counter() - started
            return out

        probed = workload.probes(probe, ops)
        tracer = A.Tracer()
        previous = A.set_tracer(tracer)
        try:
            traced = [run_pass(workload, ops, keep=False)]
        finally:
            A.set_tracer(previous)
        events = tracer.events

    # 5. correctness, outside every timed region: every pass must reproduce
    # the reference pass's answers and simulated time, and the oracles must agree.
    failed = sum(p["raised"] for p in [reference] + passes + traced)
    for other in passes + traced:
        failed += sum(a != b for a, b in zip(reference["checksums"], other["checksums"]))
        failed += other["totals"].get("model.modeled_ms") != reference["totals"].get("model.modeled_ms")
    oracle_started = time.perf_counter()
    checked, wrong = workload.check(ops, reference["digests"])
    return {
        "workload": workload,
        "ops": ops,
        "setup_walls": setup_walls,
        "setup_spans": setup_spans,
        "passes": passes,
        "traced": traced,
        "events": events,
        "probe_s": probe_s,
        "probed": probed,
        "peak_rss_mb": peak_rss_mb,
        "modeled_ms": reference["totals"]["model.modeled_ms"],
        "attempted": len(ops) * (1 + len(passes) + len(traced)),
        "failed": failed + wrong,
        "checked": checked,
        "oracle_s": time.perf_counter() - oracle_started,
        "static": workload.static_metrics(),
        # The host has noisy periods of 5-20 s (README, "Steadiness"), longer
        # than a pass: each operation is charged its best wall over the P
        # passes, and layer timings come from the fastest pass.
        "op_walls": [min(walls) for walls in zip(*(p["walls"] for p in passes))],
        "best_pass": min(passes, key=lambda p: p["wall"]),
    }


def end_to_end_metrics(run: dict) -> dict:
    return {
        "setup_s": statistics.median(run["setup_walls"][1:]),
        "traverse_wall_s": sum(run["op_walls"]),
        "modeled_ms": run["modeled_ms"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def layer_metrics(A, run: dict, end_to_end: dict, spec: dict) -> dict:
    """Per-layer rows; zero where a layer takes no part in the workload."""
    workload, best, probe_s = run["workload"], run["best_pass"], run["probe_s"]
    layer = {m["name"]: 0.0 for m in spec["per_layer"]}
    span_totals = [s.totals() for s in run["setup_spans"][1:]]
    for span_name in set().union(*span_totals):
        layer[f"{span_name}_s"] = statistics.median(t.get(span_name, 0.0) for t in span_totals)
    layer.update({f"{label}_s": value for label, value in probe_s.items()})
    layer.update(run["static"])
    layer.update(best["layer"])
    for key, value in best["totals"].items():
        if key.startswith(("model.", "comm.", "dynamic.", "weighted.")):
            layer[key] = value
    directed = layer["graph.directed_edges"]
    traversal_s = best["totals"]["wall.traversal"]
    steps = best["totals"]["steps"]
    examined = best["totals"]["edges"]
    accounted = 0.0
    for phase in ("kernels", "exchange", "delegate_reduce"):
        layer[f"engine.{phase}_s"] = best["totals"][f"wall.{phase}"]
        accounted += layer[f"engine.{phase}_s"]
    for kernel in ("nn", "nd", "dn", "dd"):
        layer[f"engine.edges_{kernel}"] = best["totals"].get(f"edges.{kernel}", 0)
    total_s = end_to_end["setup_s"] + end_to_end["traverse_wall_s"]
    layer.update({
        "total_s": total_s,
        "graph.setup_cold_s": run["setup_walls"][0],
        "graph.setup_share": end_to_end["setup_s"] / total_s,
        "graph.generate_edges_per_s": rate(workload.raw_edge_count, layer["graph.generate_s"]),
        "graph.prepare_edges_per_s": rate(directed, layer["graph.prepare_s"]),
        "graph.csr_edges_per_s": rate(directed, probe_s.get("graph.csr", 0.0)),
        "partition.distribute_edges_per_s": rate(directed, probe_s.get("partition.distribute", 0.0)),
        "partition.build_edges_per_s": rate(directed, layer["partition.build_s"]),
        "engine.other_s": traversal_s - accounted,
        "engine.steps": steps,
        "engine.us_per_step": traversal_s / steps * 1e6,
        "engine.edges_examined": examined,
        "engine.ns_per_edge": traversal_s / examined * 1e9,
        "engine.work_ratio": examined / (2.0 * best["edges"]),
        "engine.host_per_modeled": traversal_s / (end_to_end["modeled_ms"] / 1e3),
        "validate.checked_ops": run["checked"],
        "validate.oracle_s": run["oracle_s"],
        "failed_ops_share": run["failed"] / run["attempted"],
    })
    workload.layer_metrics(layer, run["ops"], run["op_walls"], best["digests"], run["probed"])
    if run["traced"]:
        summary = A.summarize_events(run["events"])
        span_s = {key: row["total_ms"] / 1e3 for key, row in summary["spans"].items()}
        children = ("plan+direction", "fold", "nn-exchange", "delegate-reduce", "overlay-relax")
        super_step = span_s.get("engine/super-step", 0.0)
        attributed = sum(span_s.get(f"engine/{c}", 0.0) for c in children)
        attributed += span_s.get("exec/kernels", 0.0)
        layer.update({
            "obs.trace_overhead": run["traced"][0]["wall"]
            / statistics.median(p["wall"] for p in run["passes"]),
            "obs.events": summary["events"],
            "obs.span.super_step_s": super_step,
            "obs.span.plan_direction_s": span_s.get("engine/plan+direction", 0.0),
            "obs.span.fold_s": span_s.get("engine/fold", 0.0),
            "obs.span.nn_exchange_s": span_s.get("engine/nn-exchange", 0.0),
            "obs.span.delegate_reduce_s": span_s.get("engine/delegate-reduce", 0.0),
            "obs.span.worker_kernels_s": sum(
                v for k, v in span_s.items() if k.startswith("worker/")),
            "obs.unattributed_share": rate(super_step - attributed, super_step),
        })
    return layer


def print_report(envelope: dict, detail: dict) -> None:
    print(f"# {detail['workload']} seed={detail['seed']} trace={detail['trace']} "
          f"passes={detail['passes']} ops/pass={detail['operations_per_pass']}")
    notes = {
        "setup_s": "median of the warm set-ups:",
        "traverse_wall_s": "best of the passes, operation by operation; whole-pass walls:",
    }
    for name, metric in envelope["metrics"].items():
        line = f"{name:<36} {metric['value']:>18.6f} {metric['unit']}"
        if name in notes:
            sample = detail["samples"]["setup_s" if name == "setup_s" else "pass_wall_s"]
            line += (f"   {notes[name]} q1={sample['q1']:.6f} median={sample['median']:.6f} "
                     f"q3={sample['q3']:.6f} n={sample['n']}")
        print(line)


# --------------------------------------------------------------------------- #
# Full set: one child per workload and trace mode
# --------------------------------------------------------------------------- #
def host_block(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    sys.path.insert(0, str(ROOT / "src"))
    import adapter as A

    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_available": bool(A.numba_available()),
        "repro": A.__version__,
        "git_sha": git.stdout.strip() if git.returncode == 0 else "unknown",
        "seed": seed,
    }


def run_set(names: list[str], args, spec: dict) -> int:
    """Each workload in its own child, one at a time; merge their results."""
    result = {"host": host_block(args.seed), "seconds": args.seconds,
              "smoke": args.smoke, "workloads": {}}
    status = 0
    scratch = WORK_ROOT / f"set-{os.getpid()}"
    scratch.mkdir(parents=True)
    detail_path = scratch / "detail.json"
    for name in names:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "1", "--out", str(detail_path),
        ] + (["--smoke"] if args.smoke else [])
        child = subprocess.run(command, cwd=ROOT)
        if child.returncode != 0:
            print(f"{name} exited with {child.returncode}", file=sys.stderr)
            status = 1
            continue
        result["workloads"][name] = json.loads(detail_path.read_text())
        status |= not result["workloads"][name]["correct"]
    remove_scratch(scratch)
    if args.out:
        # One line per workload: a result set stays a readable, diffable file.
        rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(row, sort_keys=True)}"
                          for name, row in result.pop("workloads").items())
        head = json.dumps(result, sort_keys=True)[:-1]
        Path(args.out).write_text(f'{head}, "workloads": {{\n{rows}\n}}}}\n')
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="scale 10, 2 roots, 64 queries, one pass")
    parser.add_argument("--out", default=None, help="write the detailed JSON result here")
    args = parser.parse_args(argv)

    if not SPEC_PATH.is_file() or not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: {ROOT} holds no BENCHMARK.json + src/repro; nothing to measure",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in args.workload if w not in names]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(names)}")
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])

    if len(args.workload) != 1 or args.trace is None:
        return run_set(args.workload or names, args, spec)

    for variable in AMBIENT_ENV:
        os.environ.pop(variable, None)
    sys.path.insert(0, str(ROOT / "src"))
    envelope, detail = run_workload(
        args.workload[0], args.seed, args.seconds, bool(args.trace), args.smoke, spec
    )
    print_report(envelope, detail)
    if args.out:
        Path(args.out).write_text(json.dumps(detail, sort_keys=True) + "\n")
    print(json.dumps(envelope))
    return 0


if __name__ == "__main__":
    sys.exit(main())
