"""Function-level reachability of ``src/repro``: the product against the tests.

Stdlib only (``coverage`` is not needed).  A ``sys.setprofile`` hook, also
set on every new thread and kept in forked pool workers, records each code
object a run enters; ``ast`` lists every ``def`` under ``src/repro``.

Two modes::

    python tools/reach.py [CHECKOUT] --out reach.json
    python tools/reach.py [CHECKOUT] --product [--keep tools/reach-keep.md] --out reach.json

The first runs the tier-1 suite (``tests`` + ``benchmarks``) and classes
each function *entered* or *never* entered.  ``--product`` also runs the
product, in a second child process: every CLI subcommand, the golden CLI
invocations, the README's library snippets (plus every program on a mutated
session), the quick bench suite on five run modes, every registered
scenario shrunk to scale <= 11, ``repro build`` from a scale, an npz, a
REPROEL1 file and the WDC generator, the seven ``BENCHMARK.json`` workloads
at ``--smoke --trace 1``, the examples and the ``benchmarks/test_*.py``
paper replications.  Each function is then *product* (a product run enters
it), *tests-only* (only tier-1 does) or *never* entered.  ``--keep`` names a
markdown file whose ``| `FILE::QUALNAME` | reason |`` table rows under a
``## Keep list`` heading are the keep list: a tests-only or never-entered
function whose ``FILE::QUALNAME`` a row names exactly is kept for that
reason, any other is reported as *unlisted*, and a row naming no such
function as *unused*.  The exit status is 1 when a step failed (its
functions would read as tests-only) or a function is unlisted or a row
unused, and 0 otherwise; the report is written either way.

Limits: a function counts as entered once it is called, however little of it
runs; forked pool workers are seen (each logs what it enters to a file), but
subprocesses (the CLI tests that run ``python -m repro.cli``) are not.
pytest runs with ``--benchmark-disable``: pytest-benchmark otherwise turns
the hook off inside every benchmarked function.
Run time on a 2-vCPU Xeon: about 4 minutes for ``--product``, 1.5 without.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

CLASSES = ("product", "tests_only", "never")


# --------------------------------------------------------------------------- #
# What exists, and what a run enters
# --------------------------------------------------------------------------- #
def _definitions(src: Path) -> list[dict]:
    """Every function / method under ``src/repro``: file, qualified name, the
    line its code object starts on (the first decorator's) and its line span."""
    found = []
    for path in sorted((src / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    name = f"{prefix}{child.name}"
                    found.append({
                        "file": str(path.relative_to(src.parent)),
                        "name": name,
                        "line": first,
                        "lines": child.end_lineno - first + 1,
                        "_key": f"{path.resolve()}:{first}",
                        "_span": (first, child.end_lineno),
                    })
                    stack.append((child, f"{name}."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}{child.name}."))
                else:
                    stack.append((child, prefix))
    return found


def _record(body, fork_log: Path) -> tuple[set, object]:
    """Run ``body()`` under the hook; return the ``path:line`` keys of every
    code object entered (here and in forked children) and the result."""
    seen: set = set()
    log = []  # the open log file, in a forked child only

    def hook(frame, event, arg):
        if event == "call" and frame.f_code not in seen:
            seen.add(frame.f_code)
            if log:
                log[0].write(f"{os.path.realpath(frame.f_code.co_filename)}:"
                             f"{frame.f_code.co_firstlineno}\n")

    def in_child():
        # Line-buffered: a worker ended by SIGTERM has written every line.
        log[:] = [open(fork_log / f"{os.getpid()}.keys", "a", buffering=1)]

    os.register_at_fork(after_in_child=in_child)
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        result = body()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    keys = {f"{os.path.realpath(c.co_filename)}:{c.co_firstlineno}" for c in seen}
    for path in fork_log.glob("*.keys"):
        keys.update(path.read_text().split())
    return keys, result


# --------------------------------------------------------------------------- #
# The runs
# --------------------------------------------------------------------------- #
def _pytest(*paths: str) -> int:
    """``pytest -q`` in this process.  pytest-benchmark pauses every profiler
    while it times a benchmarked function; ``--benchmark-disable`` runs each
    such function once, with the hook on."""
    import pytest

    flags = ["--benchmark-disable"] if importlib.util.find_spec("pytest_benchmark") else []
    return int(pytest.main(["-q", "-p", "no:cacheprovider", *flags, *paths]))


def _tier1(checkout: Path, scratch: Path) -> dict:
    return {"tier-1 (pytest)": _pytest()}


def _cli(*argv, expect: int = 0) -> None:
    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse: --version
            code = exc.code
    if code != expect:
        raise RuntimeError(f"repro {' '.join(map(str, argv))}: exit {code}, expected {expect}")


def _golden_cli(checkout: Path, scratch: Path) -> None:
    spec = importlib.util.spec_from_file_location(
        "_golden_cli_cases", checkout / "tests" / "test_cli_contract.py")
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    for name, (command, *rest) in cases.CASES.items():
        _cli(command, *cases.COMMON, *rest)
        _cli(command, *cases.COMMON, *rest, "--json")
    for rest in cases.SERVE_CASES.values():
        _cli("serve", "bench", *cases.COMMON, *rest, "--json")


def _subcommands(checkout: Path, scratch: Path) -> None:
    from repro.graph.generators import generate_graph
    from repro.graph.io import save_binary

    g = ["--scale", "10", "--layout", "2x1x2"]
    _cli("--version")
    for kind in ("rmat", "friendster", "wdc"):
        _cli("generate", "--kind", kind, "--scale", "10", "--output", scratch / f"{kind}.npz")
    _cli("generate", "--scale", "10", "--weights", "3", "--output", scratch / "w.npz")
    # `repro build` from each of its inputs; nothing in the CLI writes the
    # raw binary format, so the library's writer makes the REPROEL1 file.
    save_binary(scratch / "rmat.el", generate_graph("rmat", 10, 4))
    _cli("build", *g, "--out", scratch / "s-mmap", "--chunk-edges", "4096", "--block-edges", "8192")
    _cli("build", *g, "--kind", "wdc", "--storage", "compressed", "--out", scratch / "s-wdc", "--json")
    _cli("build", "--npz", scratch / "w.npz", "--layout", "2x1x2", "--out", scratch / "s-npz")
    _cli("build", "--binary", scratch / "rmat.el", "--layout", "2x1x2", "--out", scratch / "s-bin")
    for store in ("s-mmap", "s-wdc", "s-npz", "s-bin"):
        _cli("bfs", "--store", scratch / store, "--sources", "2")
    _cli("components", "--store", scratch / "s-wdc", "--json")
    _cli("bfs", "--npz", scratch / "friendster.npz", "--layout", "2x1x2", "--validate")
    _cli("components", "--npz", scratch / "wdc.npz", "--layout", "2x1x2", "--json")
    for axes in (["--storage", "mmap"], ["--storage", "compressed"], ["--backend", "process"]):
        _cli("bfs", *g, *axes, "--sources", "2", "--validate")
    _cli("bfs", *g, "--uniquify", "--nonblocking-reduce", "--no-direction-optimization")
    _cli("pagerank", *g, "--storage", "compressed", "--backend", "process", "--validate")
    _cli("sssp", *g, "--weights", "3", "--validate", "--json")
    _cli("bfs", *g, "--trace", scratch / "t.json", "--sources", "2")
    _cli("bfs", *g, "--storage", "mmap", "--trace", scratch / "t-mmap.json", "--sources", "2")
    _cli("components", *g, "--trace", scratch / "t.jsonl")
    for trace in ("t.json", "t.jsonl"):
        _cli("trace", "summarize", scratch / trace)
        _cli("trace", "summarize", scratch / trace, "--json")
    _cli("census", *g[:2], "--gpus", "4")
    _cli("census", *g[:2], "--gpus", "16", "--json")
    _cli("mutate", *g, "--batches", "2", "--edges-per-batch", "64")
    _cli("mutate", *g, "--program", "components", "--style", "pa", "--delete-fraction", "0.2",
         "--batches", "2", "--edges-per-batch", "64", "--json")
    serve = [*g, "--queries", "64", "--pool", "32", "--batch-size", "8"]
    _cli("serve", "bench", *serve, "--prom", scratch / "serve.prom")
    _cli("serve", "bench", *serve, "--program", "khop", "--update-rate", "0.1", "--no-baseline")
    _cli("serve", "bench", *serve, "--program", "pagerank", "--backend", "process")
    _cli("serve", "bench", *serve, "--program", "sssp", "--weights", "3")
    _cli("serve", "bench", *serve, "--arrivals", "poisson", "--prom", scratch / "open.prom",
         "--json")
    _cli("serve", "bench", *serve, "--arrivals", "diurnal", "--no-hedge", "--json")
    _cli("bench", "list")
    _cli("bench", "list", "--quick", "--json")
    for argv in (["bfs", *g, "--source", "99999"], ["sssp", *g, "--weights", "3", "--delta", "-1"],
                 ["pagerank", *g, "--damping", "1.5"],
                 ["bfs", "--npz", scratch / "w.npz", "--weights", "3"],
                 ["sssp", "--npz", scratch / "rmat.npz"],
                 ["serve", "bench", *g, "--program", "khop", "--max-hops", "-1"],
                 ["mutate", *g, "--edges-per-batch", "0"]):
        _cli(*argv, expect=2)


def _library(checkout: Path, scratch: Path) -> None:
    """The README's library snippets at scale 10 (the session chain, the
    explicit API, serving), then every program on a mutated weighted
    session, whose traversals fold the overlay edges in."""
    import repro
    from repro import BFSOptions, ClusterLayout, DistributedBFS, build_partitions, generate_rmat
    from repro.serve import Query

    graph = repro.session(layout="2x1x2").generate(scale=10, seed=7).threshold(repro.auto).build()
    graph.bfs(source=0), graph.parents(source=0), graph.components()
    graph.khop(source=0, max_hops=2)
    graph.campaign(sources=4, seed=1).geo_mean_gteps()
    layout = ClusterLayout.from_notation("2x1x2")
    partitioned = build_partitions(generate_rmat(10, rng=7), layout, threshold=64)
    DistributedBFS(partitioned, options=BFSOptions(direction_optimized=True)).run(source=0)
    service = repro.session(layout="2x1x2").generate(scale=10, seed=7).serve(
        batch_size=8, cache_size=32)
    service.query(Query("levels", source=42))
    service.serve(repro.ZipfWorkload(num_queries=64, skew=1.0, pool=32).generate(
        service.engine.graph.num_vertices))
    mutable = repro.session(layout="2x1x2").generate(scale=10, seed=7, weights=3).build()
    mutable.mutate(inserts=[[0, 42], [5, 900]])
    mutable.bfs(0), mutable.sssp(0), mutable.pagerank(), mutable.wcc_hook(), mutable.triangles()


def _quick_suite(checkout: Path, scratch: Path) -> None:
    """``bench run --quick`` on memory, mmap, compressed, traced and
    ``--baseline``; each artifact's counters compared with the committed
    baseline."""
    modes = {"memory": [], "mmap": ["--storage", "mmap"], "compressed": ["--storage", "compressed"],
             "traced": ["--trace", scratch / "quick-trace.json"], "baseline": ["--baseline"]}
    for mode, flags in modes.items():
        out = scratch / f"quick-{mode}.json"
        _cli("bench", "run", "--quick", "--repeats", "1", *flags, "--output", out)
        _cli("bench", "compare", checkout / "benchmarks" / "baseline.json", out)
    _cli("bench", "compare", scratch / "quick-memory.json", scratch / "quick-baseline.json",
         "--json")
    # --scenario selection, writing the default BENCH_<timestamp>.json name.
    os.chdir(scratch)
    try:
        _cli("bench", "run", "--scenario", "rmat14-khop3", "--repeats", "1")
        (written,) = scratch.glob("BENCH_*.json")
        _cli("bench", "compare", written, written)
    finally:
        os.chdir(checkout)


def _registry_shrunk(checkout: Path, scratch: Path) -> None:
    """Every registered scenario outside the quick suite (the streaming build
    among them) at scale <= 11, once."""
    from dataclasses import replace

    from repro.bench import registry, run_scenario

    for spec in registry():
        if not spec.quick:
            small = replace(spec, scale=min(spec.scale, 11))
            if spec.program == "build":
                small = replace(small, chunk_edges=1 << 12, block_edges=1 << 13)
            run_scenario(small, repeats=1)


def _perf_workloads(checkout: Path, scratch: Path) -> None:
    perf = checkout / "benchmarks" / "perf"
    sys.path.insert(0, str(perf))
    import run

    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        tempdir = tempfile.tempdir  # run_workload points it at its own scratch
        try:
            envelope, _ = run.run_workload(workload["name"], 1, 0.0, True, True, spec)
        finally:
            tempfile.tempdir = tempdir
        if not envelope["correct"]:
            raise RuntimeError(f"{workload['name']}: {envelope['failed']} failed operations")


#: Example script -> the small argv it runs with here.
EXAMPLES = {
    "baseline_comparison.py": ["11"],
    "dynamic_updates.py": ["11"],
    "program_zoo.py": ["11"],
    "quickstart.py": ["11"],
    "serve_cluster.py": ["11"],
    "social_network_traversal.py": [],
    "threshold_tuning.py": ["11", "4"],
    "weak_scaling_study.py": ["9", "8"],
}


def _examples(checkout: Path, scratch: Path) -> None:
    found = sorted(p.name for p in (checkout / "examples").glob("*.py"))
    if found != sorted(EXAMPLES):
        raise RuntimeError(f"examples changed: {found}")
    for name, argv in EXAMPLES.items():
        path = checkout / "examples" / name
        sys.argv = [str(path), *argv]
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")


def _replications(checkout: Path, scratch: Path) -> None:
    status = _pytest(*sorted(str(p) for p in (checkout / "benchmarks").glob("test_*.py")))
    if status:
        raise RuntimeError(f"benchmarks/test_*.py: pytest exit {status}")


PRODUCT = {
    "golden CLI invocations": _golden_cli,
    "every other subcommand": _subcommands,
    "README library snippets": _library,
    "bench run --quick x5 modes": _quick_suite,
    "registry, shrunk": _registry_shrunk,
    "BENCHMARK.json workloads --smoke --trace 1": _perf_workloads,
    "examples": _examples,
    "paper replications": _replications,
}


def _product(checkout: Path, scratch: Path) -> dict:
    status = {}
    for name, step in PRODUCT.items():
        started = time.perf_counter()
        try:
            step(checkout, scratch)
            status[name] = "ok"
        except Exception:
            traceback.print_exc()
            status[name] = "FAILED"
        print(f"reach: {name}: {status[name]} ({time.perf_counter() - started:.0f} s)",
              file=sys.stderr)
    return status


SUITES = {"tier1": _tier1, "product": _product}


def _run_suite(name: str, checkout: Path, keys_out: Path) -> int:
    """Child-process side: run one suite under the hook."""
    src = checkout / "src"
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = str(src)
    for variable in ("REPRO_BACKEND", "REPRO_STORAGE", "REPRO_TRACE"):
        os.environ.pop(variable, None)
    os.chdir(checkout)
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        scratch, fork_log = Path(tmp) / "scratch", Path(tmp) / "forks"
        scratch.mkdir()
        fork_log.mkdir()
        tempfile.tempdir = str(scratch)
        keys, status = _record(lambda: SUITES[name](checkout, scratch), fork_log)
    keys_out.write_text(json.dumps({"status": status, "keys": sorted(keys)}))
    return 0


# --------------------------------------------------------------------------- #
# The report
# --------------------------------------------------------------------------- #
def _keep_rules(path: Path) -> dict[str, str]:
    """``FILE::QUALNAME -> reason`` from the ``| `FILE::QUALNAME` | reason |``
    table rows under a markdown file's ``## Keep list`` heading."""
    rules, section = {}, False
    for line in path.read_text().splitlines():
        if line.startswith("## "):
            section = line.strip() == "## Keep list"
        elif section and line.startswith("| `"):
            name, reason = [c.strip() for c in line.strip().strip("|").split("|")][:2]
            rules[name.strip("`")] = reason
    return rules


def _lines_by_file(functions: list[dict]) -> dict:
    """Union of the functions' spans per file (nested defs count once)."""
    per_file: dict = {}
    for d in functions:
        per_file.setdefault(d["file"], set()).update(range(d["_span"][0], d["_span"][1] + 1))
    return dict(sorted(((f, len(s)) for f, s in per_file.items()), key=lambda kv: (-kv[1], kv[0])))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--out", help="JSON report path")
    parser.add_argument("--product", action="store_true",
                        help="also run the product: product / tests-only / never")
    parser.add_argument("--keep", type=Path, help="markdown file holding the keep list")
    parser.add_argument("--suite", choices=sorted(SUITES), help=argparse.SUPPRESS)
    parser.add_argument("--keys", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    checkout = Path(args.checkout).resolve()
    if args.suite:
        return _run_suite(args.suite, checkout, args.keys)
    if not args.out:
        parser.error("--out is required")

    entered, status = {}, {}
    with tempfile.TemporaryDirectory(prefix="reach-keys-") as tmp:
        for name in ["tier1"] + (["product"] if args.product else []):
            keys = Path(tmp) / f"{name}.json"
            subprocess.run([sys.executable, __file__, str(checkout), "--suite", name,
                            "--keys", str(keys)], check=True)
            found = json.loads(keys.read_text())
            entered[name], status[name] = set(found["keys"]), found["status"]

    definitions = _definitions(checkout / "src")
    classes = CLASSES if args.product else ("entered", "never")
    groups: dict = {c: [] for c in classes}
    for d in definitions:
        if d["_key"] in entered.get("product", ()):
            groups["product"].append(d)
        elif d["_key"] in entered["tier1"]:
            groups["tests_only" if args.product else "entered"].append(d)
        else:
            groups["never"].append(d)
    rules = _keep_rules(args.keep) if args.keep else {}
    unreached = [d for c in classes[1:] for d in groups[c]]
    for d in unreached:
        d["keep"] = rules.get(f"{d['file']}::{d['name']}")
    used = {f"{d['file']}::{d['name']}" for d in unreached}
    report = {
        "checkout": checkout.name,
        "suites": status,
        "functions": len(definitions),
        "classes": {c: {"functions": len(groups[c]),
                        "lines": sum(_lines_by_file(groups[c]).values())} for c in classes},
        "lines_by_file": {c: _lines_by_file(groups[c]) for c in classes[1:]},
    }
    if args.keep:
        unlisted = [d for d in unreached if d["keep"] is None]
        report["keep"] = {"rules": len(rules), "unused_rules": sorted(set(rules) - used),
                          "unlisted": len(unlisted)}
    for c in classes[1:]:
        report[c] = [{k: v for k, v in d.items() if not k.startswith("_")} for d in groups[c]]
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")

    print(f"{checkout.name}: {len(definitions)} functions; suites {json.dumps(status)}")
    for c in classes:
        print(f"  {c:<10} {report['classes'][c]['functions']:5d} functions "
              f"{report['classes'][c]['lines']:6d} lines")
    if args.keep:
        print(f"  keep list: {len(rules)} rules, {len(report['keep']['unused_rules'])} unused, "
              f"{report['keep']['unlisted']} functions unlisted")
    # A failed step hides what only it enters, so its functions read as
    # tests-only: the report is not to be trusted, and the exit says so.
    failed = [step for suite in status.values() for step, state in suite.items()
              if state not in (0, "ok")]
    keep = report.get("keep", {"unlisted": 0, "unused_rules": []})
    if failed or keep["unlisted"] or keep["unused_rules"]:
        print(f"reach: FAILED steps {failed}; {keep['unlisted']} functions unlisted; "
              f"unused rows {keep['unused_rules']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
