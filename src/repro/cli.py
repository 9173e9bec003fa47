"""Command-line interface.

A thin, scriptable front-end over the library for the common workflows a
downstream user needs without writing Python:

``python -m repro.cli generate``
    Generate a prepared Graph500 RMAT graph (or a synthetic Friendster/WDC
    substitute, or a uniform random graph) and save it as an ``.npz`` edge
    list.
``python -m repro.cli build``
    Build an on-disk graph store *out of core*: edges are streamed in bounded
    chunks through the external-memory sort/merge pipeline
    (:mod:`repro.storage`) into a memory-mapped (or compressed) CSR store,
    so peak memory never holds the whole edge list.  The store is loaded
    back with ``--store`` on the program commands.
``python -m repro.cli bfs``
    Partition a graph over a virtual cluster and run (DO)BFS from one or more
    sources — hop levels by default, Graph500-style parent trees with
    ``--algorithm parents`` — printing traversal rates and the runtime
    breakdown.
``python -m repro.cli components``
    Run distributed connected components (min-label propagation) over the
    same engine and report the component structure.
``python -m repro.cli sssp``
    Weighted single-source shortest paths over the same engine: the
    delta-stepping bucketed schedule by default (``--delta`` picks the
    bucket width), the plain Bellman-Ford schedule with ``--bellman-ford``.
    Needs a weighted graph (``--weights SEED`` on ``--scale`` generation,
    or an npz/store built with weights); ``--validate`` checks bit-exact
    against a serial Dijkstra oracle.
``python -m repro.cli pagerank``
    PageRank over the engine's value-sweep path: ``--mode fixed`` runs a
    deterministic integer fixed-point sweep (bit-identical across backends
    and storage tiers), ``--mode push`` the residual-push variant
    that converges to ``--eps``.  Works on weighted and unweighted graphs.
``python -m repro.cli census``
    Print the Figure-5 style edge-category census for a sweep of degree
    thresholds, plus the suggested threshold for a given GPU count.
``python -m repro.cli bench``
    The benchmark harness and counter gate: ``bench list`` names the
    registered scenarios, ``bench run`` times them and writes a
    ``BENCH_<timestamp>.json`` artifact (``--baseline``: every stream
    scenario in its kind's baseline mode, the "before" half of a pair with
    the same counters), ``bench compare OLD NEW`` diffs two artifacts'
    deterministic counters and exits 1 on any drift (the CI gate).  Wall
    clock is recorded, not judged: paired wall-clock runs are judged by
    ``benchmarks/perf/compare.py``.
``python -m repro.cli serve``
    The query-serving subsystem: ``serve bench`` replays a deterministic
    Zipf-skewed query stream through the batched :class:`QueryService` and
    the sequential baseline — the ``bench run`` replays of
    :mod:`repro.bench.streams` — reporting queries/second for both; with
    ``--update-rate`` the stream mixes in edge-update batches served through
    a mutable graph with epoch-bump cache invalidation.
``python -m repro.cli trace``
    Inspect traces: ``trace summarize`` aggregates a trace written by
    ``--trace PATH`` (or ``$REPRO_TRACE``) into per-span totals.  The
    program commands, ``serve bench`` and ``bench run`` accept ``--trace``;
    a ``.jsonl`` suffix writes line-delimited events, anything else writes
    Chrome ``trace_event`` JSON loadable in Perfetto.  Tracing never changes
    results or gated counters — only wall clock, within noise.
``python -m repro.cli mutate``
    The dynamic-graph subsystem: apply a deterministic update stream to a
    mutable graph while incrementally maintaining a traversal answer
    (BFS levels, connected components, or weighted shortest paths with
    ``--program sssp --weights SEED``), verifying every repaired answer
    against a from-scratch run and reporting the repair-vs-recompute
    traversal work.

Every graph-consuming subcommand accepts either ``--npz PATH`` (a previously
generated graph) or ``--scale N`` (generate an RMAT graph on the fly, with
``--weights SEED`` to attach edge weights), and every subcommand except
``generate`` accepts ``--json`` for machine-readable output.

The four **program commands** — ``bfs``, ``components``, ``sssp``,
``pagerank`` — are one body (:func:`_cmd_program`) over the program table
(:data:`repro.core.programs.PROGRAM_TABLE`) and accept one shared block:
``--npz|--scale|--store``, ``--seed``, ``--weights``, ``--layout``,
``--threshold``, ``--backend``, ``--storage``, ``--trace``,
``--validate`` and ``--json`` — plus ``--source``/``--sources`` for the
single-source programs, the flags their table rows' parameters declare
(``--delta``; ``--damping``/``--mode``/``--iterations``/``--eps``) and a
few of their own (``bfs``: ``--algorithm`` and the option flags; ``sssp``:
``--bellman-ford``; ``pagerank``: ``--top``).  Parameter ranges are checked
in one place, the program constructors.

Every check is stated once, where its input enters: the constructor that
takes a value (a program, ``ClusterLayout``, a workload, ``ClusterConfig``)
raises ``ValueError``, a missing input file ``OSError``, and
:func:`_usage_errors` turns either into a usage error.  :func:`main` is the
only place an error is printed: bad input ends in one ``error:`` line on
stderr, nothing on stdout, and exit code 2.  Only the flag combinations no
constructor can see are checked in the command bodies.

The run-time axes change wall-clock (and memory) only — results, workload
counters and modeled times are identical across every combination.
:func:`main` resolves a command's flags (a flag beats a ``bench run``
scenario's pin), the environment and the defaults into the one
:class:`repro.exec.ExecConfig` its body takes; a bad environment value ends
in one ``error:`` line and exit code 2:

``--backend inline|process`` (program commands, ``mutate``, ``bench run``,
``serve bench``; default ``$REPRO_BACKEND`` or inline)
    *where* whole runs execute: here, or dealt over a worker pool.
``--storage memory|mmap|compressed`` (program commands and ``bench run``;
default ``$REPRO_STORAGE`` or memory)
    *where the adjacency lives* — process heap, memory-mapped store segments,
    or delta+varint compressed segments.
``--trace PATH`` (program commands, ``bench run``, ``serve bench``; default
``$REPRO_TRACE``, which also traces every other command)
    where a trace of the run is written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.exec.config import KERNELS_LABEL

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    import repro
    from repro.bench.streams import STREAM_TABLE
    from repro.core.programs.table import names_where
    from repro.graph.generators import CHUNKED_GRAPH_KINDS, GRAPH_KINDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Degree-separated distributed graph traversal on a simulated GPU cluster",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {repro.__version__}",
        help="print the package version (from the project metadata) and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a prepared graph and save it as .npz")
    gen.add_argument("--kind", choices=GRAPH_KINDS, default="rmat")
    gen.add_argument("--scale", type=int, default=16, help="log2 of the vertex count")
    gen.add_argument("--seed", type=int, default=11)
    gen.add_argument(
        "--weights",
        type=int,
        default=None,
        metavar="SEED",
        help="attach deterministic edge-keyed float64 weights with this seed "
        "(required by the weighted programs: sssp, mutate --program sssp)",
    )
    gen.add_argument("--output", type=Path, required=True)
    gen.set_defaults(func=_cmd_generate)

    build = sub.add_parser(
        "build", help="stream edges through the out-of-core pipeline into a graph store"
    )
    build_graph = build.add_mutually_exclusive_group()
    build_graph.add_argument(
        "--npz", type=Path, help="edge list saved by `repro generate` (re-chunked)"
    )
    build_graph.add_argument(
        "--binary", type=Path, help="raw binary edge list (streamed, never fully loaded)"
    )
    build_graph.add_argument(
        "--scale", type=int, default=19, help="RMAT scale to stream-generate (default)"
    )
    build.add_argument(
        "--kind",
        choices=CHUNKED_GRAPH_KINDS,
        default="rmat",
        help="chunked generator for --scale builds",
    )
    build.add_argument("--seed", type=int, default=11)
    _add_cluster_args(build)
    build.add_argument(
        "--storage",
        choices=["mmap", "compressed"],
        default="mmap",
        help="on-disk CSR layout: raw memory-mapped or delta+varint compressed",
    )
    build.add_argument("--out", type=Path, required=True, help="store directory to create")
    build.add_argument(
        "--chunk-edges",
        type=int,
        default=1 << 20,
        help="edges per generator chunk (bounds generation memory)",
    )
    build.add_argument(
        "--block-edges",
        type=int,
        default=1 << 20,
        help="edges per sort/merge block (bounds build memory)",
    )
    build.add_argument(
        "--keep-scratch", action="store_true", help="keep the intermediate run/bucket files"
    )
    build.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    build.set_defaults(func=_cmd_build)

    for spec in _PROGRAM_COMMANDS:
        _add_program_command(sub, spec)

    census = sub.add_parser("census", help="edge-category census vs degree threshold")
    _add_graph_args(census)
    census.add_argument("--gpus", type=int, default=8, help="GPU count for the TH suggestion")
    census.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    census.set_defaults(func=_cmd_census)

    mut = sub.add_parser(
        "mutate", help="apply an update stream with incremental traversal maintenance"
    )
    _add_graph_args(mut)
    _add_cluster_args(mut)
    _add_exec_args(mut, "backend")
    mut.add_argument(
        "--program",
        choices=names_where("maintained"),
        default="levels",
        help="which maintained answer to repair across the stream "
        "(sssp needs a weighted graph: --weights)",
    )
    mut.add_argument(
        "--source", type=int, default=None, help="BFS/SSSP source (default: a random one)"
    )
    mut.add_argument("--batches", type=int, default=4, help="update batches to apply")
    mut.add_argument(
        "--edges-per-batch", type=int, default=1024, help="undirected updates per batch"
    )
    mut.add_argument(
        "--style",
        choices=["uniform", "pa"],
        default="uniform",
        help="update style: uniform or preferential attachment",
    )
    mut.add_argument(
        "--delete-fraction",
        type=float,
        default=0.0,
        help="share of each batch that deletes existing edges",
    )
    mut.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the per-batch bit-identical check against a from-scratch run",
    )
    mut.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    mut.set_defaults(func=_cmd_mutate)

    bench = sub.add_parser("bench", help="benchmark harness and counter gate")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    b_list = bench_sub.add_parser("list", help="list registered benchmark scenarios")
    b_list.add_argument("--quick", action="store_true", help="only the CI smoke subset")
    b_list.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    b_list.set_defaults(func=_cmd_bench_list)

    b_run = bench_sub.add_parser("run", help="time scenarios and write a BENCH artifact")
    b_run.add_argument("--quick", action="store_true", help="run the CI smoke subset")
    b_run.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="run a specific scenario (repeatable); default: the full registry",
    )
    b_run.add_argument(
        "--repeats", type=int, default=3, help="traversal passes per source (wall = min)"
    )
    b_run.add_argument(
        "--output",
        type=Path,
        default=None,
        help="artifact path (default: BENCH_<timestamp>.json in the cwd)",
    )
    b_run.add_argument("--label", default="", help="free-form snapshot label")
    b_run.add_argument("--json", action="store_true", help="print the artifact to stdout")
    b_run.add_argument(
        "--baseline",
        action="store_true",
        help="replay every stream scenario in its baseline mode ("
        + ", ".join(f"{k.name} {k.baseline}" for k in STREAM_TABLE.values() if k.baseline)
        + "): the 'before' half of a before/after pair; gated counters are "
        "identical in both modes",
    )
    _add_exec_args(b_run, "backend", "storage", "trace")
    b_run.set_defaults(func=_cmd_bench_run)

    b_cmp = bench_sub.add_parser(
        "compare", help="diff two BENCH artifacts' counters; exit 1 on drift (the CI gate)"
    )
    b_cmp.add_argument("old", type=Path, help="baseline artifact path")
    b_cmp.add_argument("new", type=Path, help="candidate artifact path")
    b_cmp.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    b_cmp.set_defaults(func=_cmd_bench_compare)

    serve = sub.add_parser("serve", help="batched multi-source query serving")
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)
    s_bench = serve_sub.add_parser(
        "bench",
        help="replay a Zipf query stream through the service; report queries/sec",
    )
    _add_graph_args(s_bench)
    _add_cluster_args(s_bench)
    _add_exec_args(s_bench, "backend", "trace")
    s_bench.add_argument("--queries", type=int, default=256, help="query stream length")
    s_bench.add_argument(
        "--skew", type=float, default=1.0, help="Zipf exponent of source popularity"
    )
    s_bench.add_argument(
        "--pool", type=int, default=192, help="candidate source pool size"
    )
    s_bench.add_argument(
        "--batch-size", type=int, default=32, help="lanes per fused MS-BFS sweep"
    )
    s_bench.add_argument(
        "--cache-size", type=int, default=128, help="LRU result-cache capacity"
    )
    s_bench.add_argument(
        "--program",
        choices=names_where("servable"),
        default="levels",
        help="query program served to every request (sssp needs a weighted "
        "graph: --weights)",
    )
    s_bench.add_argument("--max-hops", type=int, default=3, help="hop cap for khop")
    s_bench.add_argument(
        "--update-rate",
        type=float,
        default=0.0,
        help="fraction of operations that are edge-update batches (serves a "
        "mutable graph with epoch-bump cache invalidation when > 0)",
    )
    s_bench.add_argument(
        "--update-edges",
        type=int,
        default=256,
        help="undirected insertions per update batch (with --update-rate)",
    )
    s_bench.add_argument(
        "--update-style",
        choices=["uniform", "pa"],
        default="uniform",
        help="update style for the mixed stream (with --update-rate)",
    )
    s_bench.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the sequential-service baseline replay",
    )
    s_bench.add_argument(
        "--arrivals",
        choices=["closed", "poisson", "bursty", "diurnal"],
        default="closed",
        help="arrival process: 'closed' replays the stream closed-loop through "
        "one service (the default); the open-loop processes replay timed "
        "arrivals through the replicated cluster tier on a virtual clock",
    )
    s_bench.add_argument(
        "--rate",
        type=float,
        default=None,
        help="offered load in queries/second (open-loop arrivals only; "
        "default 500)",
    )
    s_bench.add_argument(
        "--replicas",
        type=int,
        default=None,
        help="serving replicas in the cluster tier (open-loop only; default 2)",
    )
    s_bench.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        help="admission bound on in-flight requests, 0 = unbounded "
        "(open-loop only; default 64)",
    )
    s_bench.add_argument(
        "--no-hedge",
        action="store_true",
        help="disable request hedging in the cluster tier (open-loop only)",
    )
    s_bench.add_argument(
        "--hedge-quantile",
        type=float,
        default=None,
        help="hedge a straggler once its age passes this latency quantile "
        "(open-loop only, needs >= 2 replicas; default 0.95)",
    )
    s_bench.add_argument(
        "--slo-ms",
        type=float,
        default=None,
        help="latency objective in ms for the SLO-violation counter "
        "(open-loop only; default off)",
    )
    s_bench.add_argument(
        "--prom",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the serving stats snapshot as Prometheus text exposition "
        "format to PATH after the replay",
    )
    s_bench.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    s_bench.set_defaults(func=_cmd_serve_bench)

    trace = sub.add_parser(
        "trace", help="inspect traces written by --trace / $REPRO_TRACE"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    t_sum = trace_sub.add_parser(
        "summarize", help="aggregate a trace into per-span duration totals"
    )
    t_sum.add_argument("path", type=Path, help="trace file (.jsonl or Chrome JSON)")
    t_sum.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    t_sum.set_defaults(func=_cmd_trace_summarize)

    return parser


def _add_graph_args(sub: argparse.ArgumentParser, store: bool = False) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--npz", type=Path, help="edge list saved by `repro generate`")
    group.add_argument("--scale", type=int, default=14, help="RMAT scale to generate on the fly")
    if store:
        group.add_argument(
            "--store", type=Path, help="graph store directory built by `repro build`"
        )
    sub.add_argument("--seed", type=int, default=11)
    sub.add_argument(
        "--weights",
        type=int,
        default=None,
        metavar="SEED",
        help="attach edge-keyed weights to the on-the-fly --scale graph "
        "(npz/store graphs carry their own weights; combining is an error)",
    )


def _add_cluster_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--layout", default="4x1x2", help="nodes x ranks-per-node x gpus-per-rank")
    sub.add_argument("--threshold", type=int, default=None, help="degree threshold TH")


def _add_exec_args(sub: argparse.ArgumentParser, *axes: str) -> None:
    """Add the flags of the run-time ``axes`` to a command; :func:`main`
    resolves them, with the environment and the defaults, into the one
    :class:`repro.exec.ExecConfig` the command body takes."""
    from repro.exec.config import BACKEND_NAMES, STORAGE_NAMES

    flags = {
        "backend": dict(
            choices=BACKEND_NAMES,
            help="execution backend: where whole runs execute; identical results, "
            "different wall-clock (default: a bench scenario's pin, else "
            "$REPRO_BACKEND, else inline)",
        ),
        "storage": dict(
            choices=STORAGE_NAMES,
            help="adjacency storage: in-memory arrays, a memory-mapped store, "
            "or a compressed store with lazy row decode; identical results "
            "(default: a bench scenario's pin, else $REPRO_STORAGE, else "
            "memory; a graph that mutates stays in memory)",
        ),
        "trace": dict(
            type=Path,
            metavar="PATH",
            help="record a trace of the run: a .jsonl suffix writes "
            "line-delimited events, anything else Chrome trace_event JSON "
            "(Perfetto-loadable); results and gated counters are unchanged "
            "(default: $REPRO_TRACE when set)",
        ),
    }
    for axis in axes:
        sub.add_argument("--" + axis, default=None, **flags[axis])
    sub.set_defaults(exec_axes=axes)


@contextlib.contextmanager
def _tracing(config):
    """Install a process-wide tracer for the command when ``config.trace``
    names a file (``--trace PATH``, else ``$REPRO_TRACE``).

    On exit the trace is exported (format by suffix) and the previous tracer
    restored; without a trace path this is a no-op and the null tracer
    stays installed.
    """
    if config.trace is None:
        yield
        return
    from repro.obs import Tracer, set_tracer, write_trace

    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        yield
    finally:
        set_tracer(previous)
        out = write_trace(tracer, config.trace)
        print(f"trace: {len(tracer.events)} events -> {out}", file=sys.stderr)


class _UsageError(Exception):
    """Bad user input: :func:`main` prints ``error: <message>`` and returns 2."""


@contextlib.contextmanager
def _usage_errors():
    """Turn the ``ValueError`` of a *constructor* (program, layout, workload,
    cluster configuration) or the ``OSError`` of a missing input file into a
    usage error.  Never wrap a traversal in this: a ``ValueError`` from the
    engine is a bug and must keep its traceback."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise _UsageError(str(exc)) from None


def _load_graph(args: argparse.Namespace):
    """The ``--npz`` edge list, else an RMAT graph generated at ``--scale``."""
    from repro.graph.io import load_npz
    from repro.graph.rmat import generate_rmat

    with _usage_errors():
        if getattr(args, "npz", None):
            return load_npz(args.npz)
        return generate_rmat(
            args.scale, rng=args.seed, weights_seed=getattr(args, "weights", None)
        )


def _check_weights_arg(args: argparse.Namespace) -> None:
    """Usage error for ``--weights`` against a graph that ships its own.

    ``--weights`` seeds weights for on-the-fly ``--scale`` generation; an
    npz archive or graph store either carries weights or was deliberately
    built without them, and silently ignoring the flag would let e.g.
    ``sssp --npz unweighted.npz --weights 7`` look configured while failing
    later for a different-sounding reason.
    """
    if getattr(args, "weights", None) is None:
        return
    if getattr(args, "npz", None) is not None or getattr(args, "store", None) is not None:
        raise _UsageError(
            "--weights only applies to --scale generation; npz/store "
            "graphs carry their own weights (regenerate with "
            "`repro generate --weights` to attach them)"
        )


def _prepare(args: argparse.Namespace, config, edges):
    """``edges`` partitioned by ``--layout`` / ``--threshold``, ready for the
    stream replays of :mod:`repro.bench.streams`."""
    from repro.bench.streams import Prepared

    return Prepared.partition(edges, args.layout, args.threshold, config)


def _stream_header(prepared, what: str) -> str:
    """The first line the stream commands print: graph, cluster, ``what``,
    and the run configuration."""
    edges, config = prepared.edges, prepared.config
    return (
        f"graph: {edges.num_vertices:,} vertices, {edges.num_edges:,} edges | "
        f"cluster {prepared.layout.notation()} | TH={prepared.threshold} | {what} | "
        f"backend {config.backend_name} | kernels {KERNELS_LABEL}"
    )


def _obtain_graph(args: argparse.Namespace, config):
    """Resolve ``--store`` / ``--npz`` / ``--scale`` (+ ``config.storage``)
    into a partitioned graph.

    Returns ``(edges, graph)``; ``edges`` is ``None`` for store-backed loads
    (a store holds only the partitioned CSRs, not the raw edge list).
    """
    store = getattr(args, "store", None)
    if store is not None:
        from repro.storage import load_graph_store

        with _usage_errors():  # a truncated or foreign store
            return None, load_graph_store(store)
    edges = _load_graph(args)
    graph = _prepare(args, config, edges).graph
    if config.storage != "memory":
        from repro.storage import apply_storage

        graph = apply_storage(graph, config.storage)
    return edges, graph


def _graph_info(graph) -> dict:
    return {
        "vertices": int(graph.num_vertices),
        "directed_edges": int(graph.num_directed_edges),
        "layout": graph.layout.notation(),
        "threshold": int(graph.separation.threshold),
        "delegates": int(graph.num_delegates),
        "storage": getattr(graph, "storage", "memory"),
    }


def _cmd_generate(args: argparse.Namespace, config) -> int:
    from repro.graph.generators import generate_graph
    from repro.graph.io import save_npz

    with _usage_errors():
        edges = generate_graph(args.kind, args.scale, args.seed, weights_seed=args.weights)
    save_npz(args.output, edges)
    weighted = ", weighted" if edges.weights is not None else ""
    print(
        f"wrote {args.output}: {edges.num_vertices:,} vertices, "
        f"{edges.num_edges:,} directed edges ({args.kind}, scale {args.scale}{weighted})"
    )
    return 0


def _cmd_build(args: argparse.Namespace, config) -> int:
    from repro.storage import external_build
    from repro.utils.rss import max_rss_mb

    if args.chunk_edges < 1 or args.block_edges < 1:
        raise _UsageError("--chunk-edges and --block-edges must be >= 1")
    if args.npz is not None:
        from repro.graph.io import load_npz
        from repro.storage import chunks_from_edgelist

        with _usage_errors():
            edges = load_npz(args.npz)
        num_vertices = edges.num_vertices
        chunks = chunks_from_edgelist(edges, args.chunk_edges)
        source = f"npz {args.npz}"
    elif args.binary is not None:
        from repro.graph.io import binary_edge_count, iter_binary

        with _usage_errors():
            num_vertices, _ = binary_edge_count(args.binary)
        chunks = iter_binary(args.binary, args.chunk_edges)
        source = f"binary {args.binary}"
    else:
        from repro.graph.generators import generate_edge_chunks

        num_vertices = 1 << args.scale
        chunks = generate_edge_chunks(args.kind, args.scale, args.seed, args.chunk_edges)
        source = f"{args.kind} scale {args.scale}"

    path, report = external_build(
        chunks,
        num_vertices,
        args.layout,
        args.out,
        threshold=args.threshold,
        storage=args.storage,
        block_edges=args.block_edges,
        keep_scratch=args.keep_scratch,
    )
    report["source"] = source
    report["max_rss_mb"] = max_rss_mb()
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    walls = report["walls"]
    print(f"built {path} ({report['storage']}) from {source}")
    print(
        f"  {report['num_vertices']:,} vertices, "
        f"{report['num_directed_edges']:,} directed edges, "
        f"TH={report['threshold']}, {report['num_delegates']:,} delegates, "
        f"{report['num_chunks']} chunks -> {report['num_runs']} sorted runs"
    )
    print(
        "  "
        + " | ".join(f"{name} {wall:.2f} s" for name, wall in walls.items())
        + f" | total {sum(walls.values()):.2f} s"
    )
    print(f"  peak RSS {report['max_rss_mb']:.1f} MiB")
    return 0


def _pick_sources(args: argparse.Namespace, count: int, degrees: np.ndarray) -> np.ndarray:
    """``--source`` when given (range-checked), else ``count`` random sources
    of non-zero degree drawn with ``seed + 1``."""
    from repro.graph.degree import resolve_sources

    if args.source is None:
        with _usage_errors():
            return resolve_sources(count, degrees, rng=args.seed + 1)
    if not 0 <= args.source < len(degrees):
        raise _UsageError(f"--source {args.source} out of range [0, {len(degrees)})")
    return np.asarray([args.source], dtype=np.int64)


# --------------------------------------------------------------------------- #
# The program commands: one body, one row per command for what genuinely differs
# --------------------------------------------------------------------------- #
def _timing_breakdown(t) -> str:
    return (
        f"[comp {t.computation:.3f} | local {t.local_communication:.3f} | "
        f"normal {t.remote_normal_exchange:.3f} | delegate {t.remote_delegate_reduce:.3f}]"
    )


def _bfs_arguments(sub: argparse.ArgumentParser, spec) -> None:
    sub.add_argument(
        "--algorithm",
        choices=spec.rows,
        default=spec.rows[0],
        help="output hop levels (the paper) or a Graph500-style parent tree",
    )
    sub.add_argument("--no-direction-optimization", action="store_true")
    sub.add_argument("--local-all2all", action="store_true")
    sub.add_argument("--uniquify", action="store_true")
    sub.add_argument("--nonblocking-reduce", action="store_true")


def _bfs_options(args: argparse.Namespace):
    from repro.core.options import BFSOptions

    return BFSOptions(
        direction_optimized=not args.no_direction_optimization,
        local_all2all=args.local_all2all or args.uniquify,
        uniquify=args.uniquify,
        blocking_reduce=not args.nonblocking_reduce,
    )


def _bfs_report(args: argparse.Namespace, result) -> list[str]:
    if not result.traversed_more_than_one_iteration():
        return [f"  source {result.source}: skipped (single-iteration run)"]
    return [
        f"  source {result.source:>9}: {result.num_visited:,} visited, "
        f"{result.iterations} iters, {result.timing.elapsed_ms:.3f} ms, "
        f"{result.gteps():.3f} GTEPS {_timing_breakdown(result.timing)}"
    ]


def _bfs_footer(spec, results: list, oracle: str | None) -> list[str]:
    from repro.core.campaign import Campaign

    campaign = Campaign.from_results(results)
    if not campaign.reported:
        return []
    return [
        f"geometric mean: {campaign.geo_mean_gteps():.3f} GTEPS "
        f"over {len(campaign.reported)} runs",
        *_validated_footer(spec, results, oracle),
    ]


def _bfs_json(args: argparse.Namespace, results: list) -> dict:
    from repro.core.campaign import Campaign

    return {"campaign": Campaign.from_results(results).summary()}


def _components_report(args: argparse.Namespace, result) -> list[str]:
    return [
        f"  components: {result.num_components:,} "
        f"(largest {result.largest_component_size:,} vertices) in "
        f"{result.iterations} iterations, modeled {result.timing.elapsed_ms:.3f} ms "
        f"{_timing_breakdown(result.timing)}"
    ]


def _sssp_arguments(sub: argparse.ArgumentParser, spec) -> None:
    sub.add_argument(
        "--bellman-ford",
        action="store_true",
        help="run the plain Bellman-Ford program instead of the bucketed driver "
        "(the workload baseline; identical distances)",
    )


def _sssp_report(args: argparse.Namespace, result) -> list[str]:
    return [
        f"  source {result.source:>9}: {result.num_reached:,} reached, "
        f"{result.phases} phases, {result.total_edges_examined:,} relaxations, "
        f"modeled {result.timing.elapsed_ms:.3f} ms"
    ]


def _pagerank_arguments(sub: argparse.ArgumentParser, spec) -> None:
    sub.add_argument("--top", type=int, default=5, help="highest-ranked vertices to print")


def _pagerank_report(args: argparse.Namespace, result) -> list[str]:
    return [
        f"  pagerank ({args.mode}, damping {args.damping}): "
        f"{result.iterations} sweeps, {result.total_edges_examined:,} edge "
        f"contributions, modeled {result.timing.elapsed_ms:.3f} ms",
        *(
            f"    #{rank}: vertex {int(vertex)} rank {result.ranks_float[vertex]:.6f}"
            for rank, vertex in enumerate(result.top_vertices(args.top), 1)
        ),
    ]


def _pagerank_json(args: argparse.Namespace, results: list) -> dict:
    (result,) = results
    return {
        "top": [
            {"vertex": int(v), "rank": float(result.ranks_float[v])}
            for v in result.top_vertices(args.top)
        ]
    }


def _validated_footer(spec, results: list, oracle: str | None) -> list[str]:
    return [f"{spec.subject} validated against {oracle}"] if oracle else []


@dataclass(frozen=True)
class _ProgramCommand:
    """What genuinely differs between the program commands.

    Everything else — the shared argument block, the flags generated from the
    program table's parameter declarations, the run/validate/report skeleton,
    the JSON envelope — is :func:`_add_program_command` and
    :func:`_cmd_program`.
    """

    name: str
    help: str
    validate_help: str
    #: Program-table rows the command can run.
    rows: tuple[str, ...]
    #: Text lines reporting one result.
    report: Callable
    #: What the ``--validate`` footer says was validated.
    subject: str = "all runs"
    #: ``args -> row name`` (default: the only row).
    select: Callable | None = None
    #: Default of ``--sources`` for single-source programs.
    sources: int = 0
    #: Adds the command's own flags.
    arguments: Callable | None = None
    #: ``args -> BFSOptions`` (default: the engine's defaults).
    options: Callable | None = None
    #: ``args -> dict`` of header fields (also JSON keys) ahead of backend/kernels.
    labels: Callable | None = None
    #: ``(args, results) -> dict`` of extra JSON keys.
    json: Callable | None = None
    #: ``(spec, results, oracle) -> lines`` closing the text report.
    footer: Callable = _validated_footer


_PROGRAM_COMMANDS = (
    _ProgramCommand(
        "bfs",
        help="partition a graph and run (DO)BFS",
        validate_help="check against a serial oracle",
        rows=("levels", "parents"),
        select=lambda args: args.algorithm,
        sources=5,
        arguments=_bfs_arguments,
        options=_bfs_options,
        labels=lambda args: {
            "options": _bfs_options(args).label(),
            "algorithm": args.algorithm,
        },
        report=_bfs_report,
        json=_bfs_json,
        footer=_bfs_footer,
    ),
    _ProgramCommand(
        "components",
        help="distributed connected components (label propagation)",
        validate_help="check against union-find",
        rows=("components",),
        report=_components_report,
        subject="labels",
    ),
    _ProgramCommand(
        "sssp",
        help="weighted single-source shortest paths (delta-stepping)",
        validate_help="check against a serial Dijkstra oracle",
        rows=("sssp", "bellman-ford"),
        select=lambda args: "bellman-ford" if args.bellman_ford else "sssp",
        sources=3,
        arguments=_sssp_arguments,
        labels=lambda args: {
            "schedule": "bellman-ford" if args.bellman_ford else "delta-stepping",
            "delta": str(args.delta),
        },
        report=_sssp_report,
    ),
    _ProgramCommand(
        "pagerank",
        help="PageRank over the delegate-partitioned engine",
        validate_help="check against the serial reference (exact in fixed mode, "
        "float power iteration in push mode)",
        rows=("pagerank",),
        arguments=_pagerank_arguments,
        report=_pagerank_report,
        json=_pagerank_json,
        subject="ranks",
    ),
)


def _add_program_command(sub, spec: _ProgramCommand) -> None:
    """Generate one program command's sub-parser: the shared block, the flags
    its rows' parameters declare, then the command's own."""
    from repro.core.programs import PROGRAM_TABLE

    parser = sub.add_parser(spec.name, help=spec.help)
    _add_graph_args(parser, store=True)
    _add_cluster_args(parser)
    _add_exec_args(parser, "backend", "storage", "trace")
    rows = [PROGRAM_TABLE[name] for name in spec.rows]
    if rows[0].takes_source:
        parser.add_argument(
            "--sources", type=int, default=spec.sources, help="number of random sources"
        )
        parser.add_argument("--source", type=int, default=None, help="explicit source vertex")
    for param in dict.fromkeys(p for row in rows for p in row.params):
        parser.add_argument(
            "--" + param.name.replace("_", "-"),
            type=param.type,
            default=param.default,
            choices=param.choices,
            help=param.help,
        )
    if spec.arguments is not None:
        spec.arguments(parser, spec)
    parser.add_argument("--validate", action="store_true", help=spec.validate_help)
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    parser.set_defaults(func=_cmd_program, spec=spec)


def _cmd_program(args: argparse.Namespace, config) -> int:
    """The body of every program command (``bfs``/``components``/``sssp``/
    ``pagerank``): check arguments, obtain the graph, run the selected row's
    program per source, validate against the row's oracle, report."""
    from repro.core.engine import TraversalEngine
    from repro.core.programs import PROGRAM_TABLE, make_program

    spec: _ProgramCommand = args.spec
    row = PROGRAM_TABLE[spec.select(args) if spec.select else spec.rows[0]]
    with _usage_errors():
        # Every flag the command takes is checked, selected row or not; the
        # program constructors own the ranges.
        for name in spec.rows:
            make_program(name, 0, **PROGRAM_TABLE[name].pick(**vars(args)))
    if args.validate and args.store is not None:
        raise _UsageError(
            "--validate needs the raw edge list, which a graph store "
            "does not keep; validate against --npz/--scale instead"
        )
    edges, graph = _obtain_graph(args, config)
    if row.cls.needs_weights and not graph.is_weighted:
        raise _UsageError(
            "this graph carries no edge weights; generate one with "
            "--weights SEED (or `repro generate --weights`) first"
        )
    sources = (
        [int(s) for s in _pick_sources(args, args.sources, graph.separation.degrees)]
        if row.takes_source
        else [None]
    )

    engine = TraversalEngine(
        graph,
        options=spec.options(args) if spec.options else None,
        backend=config.backend,
    )
    labels = {
        **(spec.labels(args) if spec.labels else {}),
        "backend": config.backend_name,
        "kernels": KERNELS_LABEL,
    }
    if not args.json:
        print(
            f"graph: {graph.num_vertices:,} vertices, {graph.num_directed_edges:,} "
            f"{'weighted ' if row.cls.needs_weights else ''}edges | "
            f"cluster {graph.layout.notation()} | TH={graph.separation.threshold} | "
            f"delegates {graph.num_delegates:,} | "
            + "".join(f"{key} {value} | " for key, value in labels.items())
            + f"storage {getattr(graph, 'storage', 'memory')}"
        )

    check = row.oracle(edges) if args.validate else None
    params = row.pick(**vars(args))
    results: list = []
    oracle = None
    programs = [make_program(row.name, source, **params) for source in sources]
    try:
        # One run per source, dealt over the pool on a process backend;
        # results come back, and are checked and printed, in source order.
        for program, result in zip(programs, engine.run_each(programs)):
            if check is not None:
                oracle = check(program, result)
            if not args.json:
                print("\n".join(spec.report(args, result)))
            results.append(result)
    finally:
        engine.close()

    if args.json:
        summaries = [result.summary() for result in results]
        payload = {
            "graph": _graph_info(graph),
            **labels,
            **({"runs": summaries} if row.takes_source else {"result": summaries[0]}),
            **(spec.json(args, results) if spec.json else {}),
            "validated": bool(args.validate),
        }
        print(json.dumps(payload, indent=2))
        return 0
    for line in spec.footer(spec, results, oracle):
        print(line)
    return 0

def _cmd_census(args: argparse.Namespace, config) -> int:
    from repro.graph.degree import out_degrees
    from repro.partition.delegates import (
        census_for_thresholds,
        suggest_threshold,
        threshold_candidates,
    )
    from repro.utils.rss import max_rss_mb

    edges = _load_graph(args)
    with _usage_errors():
        suggestion = suggest_threshold(edges, args.gpus)
    max_degree = int(out_degrees(edges).max()) if edges.num_edges else 0
    censuses = list(census_for_thresholds(edges, threshold_candidates(max_degree)))

    if args.json:
        print(
            json.dumps(
                {
                    "rows": [
                        {
                            "threshold": int(c.threshold),
                            "delegate_pct": c.delegate_percentage,
                            "dd_pct": c.dd_percentage,
                            "nd_dn_pct": c.nd_dn_percentage,
                            "nn_pct": c.nn_percentage,
                        }
                        for c in censuses
                    ],
                    "gpus": args.gpus,
                    "suggested_threshold": int(suggestion),
                    "max_rss_mb": max_rss_mb(),
                },
                indent=2,
            )
        )
        return 0

    print(f"{'TH':>10} {'delegates%':>11} {'dd%':>8} {'nd+dn%':>8} {'nn%':>8}")
    for census in censuses:
        print(
            f"{census.threshold:>10} {census.delegate_percentage:>11.2f} "
            f"{census.dd_percentage:>8.2f} {census.nd_dn_percentage:>8.2f} "
            f"{census.nn_percentage:>8.2f}"
        )
    print(f"suggested threshold for {args.gpus} GPUs: {suggestion}")
    return 0


def _cmd_mutate(args: argparse.Namespace, config) -> int:
    from repro.bench.streams import maintain
    from repro.core.programs import PROGRAM_TABLE
    from repro.dynamic import update_stream
    from repro.graph.degree import out_degrees

    row = PROGRAM_TABLE[args.program]
    edges = _load_graph(args)
    if row.cls.needs_weights and edges.weights is None:
        raise _UsageError(
            f"mutate --program {args.program} needs a weighted graph; pass "
            "--weights SEED (or an npz generated with `repro generate --weights`)"
        )
    source = (
        int(_pick_sources(args, 1, out_degrees(edges))[0]) if row.takes_source else None
    )
    prepared = _prepare(args, config, edges)
    prepared.weights_seed = args.weights or 0
    with _usage_errors():
        stream = update_stream(
            edges,
            num_batches=args.batches,
            edges_per_batch=args.edges_per_batch,
            style=args.style,
            delete_fraction=args.delete_fraction,
            seed=args.seed + 3,
        )
    if not args.json:
        origin = f" from {source}" if source is not None else ""
        print(_stream_header(prepared, f"maintained {args.program}{origin}"))
        print(
            f"stream: {args.batches} x {args.edges_per_batch} {args.style} updates, "
            f"delete fraction {args.delete_fraction}"
        )

    run = maintain(prepared, stream, args.program, source, verify=not args.no_verify)
    batches, stats, dynamic = (run.detail[key] for key in ("batches", "stats", "graph"))
    if args.json:
        print(
            json.dumps(
                {
                    "graph": {
                        "vertices": int(edges.num_vertices),
                        "directed_edges": int(dynamic.num_directed_edges),
                        "layout": prepared.layout.notation(),
                        "threshold": int(dynamic.threshold),
                    },
                    "program": args.program,
                    "source": source,
                    "style": args.style,
                    "verified": not args.no_verify,
                    "batches": batches,
                    "stats": stats,
                    "final_version": dynamic.version,
                    "compactions": dynamic.compactions,
                    "overlay_edges": dynamic.overlay.num_edges,
                    "overlay_edges_per_gpu": [
                        int(e) for e in dynamic.overlay.edges_per_gpu()
                    ],
                },
                indent=2,
            )
        )
        return 0

    for entry in batches:
        line = (
            f"  batch {entry['batch']}: +{entry['inserted']}/-{entry['deleted']} edges "
            f"-> {entry['path']} ({entry['iterations']} iters, "
            f"{entry['edges_examined']:,} edges, {entry['modeled_ms']:.3f} ms modeled)"
        )
        if entry["compacted"]:
            line += f" [compacted: {entry['compact_reason']}]"
        if "recompute_modeled_ms" in entry and entry["modeled_ms"] > 0:
            line += (
                f" vs recompute {entry['recompute_modeled_ms']:.3f} ms "
                f"({entry['recompute_modeled_ms'] / entry['modeled_ms']:.1f}x)"
            )
        print(line)
    print(
        f"maintenance: {stats['repairs']} repairs, {stats['recomputes']} recomputes, "
        f"{stats['skipped']} skipped | repair examined {stats['repair_edges']:,} edges "
        f"({stats['repair_modeled_ms']:.3f} ms modeled)"
    )
    if not args.no_verify:
        print("every maintained answer verified bit-identical to a from-scratch run")
    print(
        f"graph: version {dynamic.version}, {dynamic.compactions} compaction(s), "
        f"{dynamic.overlay.num_edges:,} overlay edges resident"
    )
    return 0


def _cmd_bench_list(args: argparse.Namespace, config) -> int:
    from repro.bench import quick_scenarios, registry

    specs = quick_scenarios() if args.quick else registry()
    # A scenario's pin, else the backend an unpinned scenario would run on.
    backends = {s.name: config.pinned(**s.pins).backend_name for s in specs}
    if args.json:
        # The stable tooling contract: every entry carries at least
        # (name, family, program, backend) so scripts can slice the registry
        # without parsing the text table.  The run-time axes other than the
        # backend are absent: each is recorded per artifact record, never
        # part of a scenario's identity.
        print(
            json.dumps(
                [
                    {
                        "name": s.name,
                        "family": s.kind,
                        "quick": s.quick,
                        "backend": backends[s.name],
                        **s.describe(),
                    }
                    for s in specs
                ],
                indent=2,
            )
        )
        return 0
    print(
        f"{'name':<28} {'quick':>5}  {'graph':<12} {'program':<10} "
        f"{'options':<10} {'backend':<8} TH"
    )
    for s in specs:
        th = "auto" if s.threshold is None else str(s.threshold)
        print(
            f"{s.name:<28} {'yes' if s.quick else 'no':>5}  "
            f"{s.kind + str(s.scale):<12} {s.program:<10} {s.options.label():<10} "
            f"{backends[s.name]:<8} {th}"
        )
    print(f"{len(specs)} scenario(s)")
    print(
        "axes at run time: --backend inline|process, "
        "--storage memory|mmap|compressed (recorded per record, "
        "not part of the scenario)"
    )
    return 0


def _cmd_bench_run(args: argparse.Namespace, config) -> int:
    from repro.bench import default_artifact_path, find_scenarios, quick_scenarios, registry
    from repro.bench.runner import _check_repeats, _run_suite

    with _usage_errors():
        _check_repeats(args.repeats)
    if args.scenario:
        try:
            specs = find_scenarios(args.scenario)
        except KeyError as exc:
            raise _UsageError(exc.args[0]) from None
        if args.quick:
            specs = tuple(s for s in specs if s.quick)
            if not specs:
                raise _UsageError(
                    "none of the named scenarios belong to the quick subset "
                    "(drop --quick to run them)"
                )
    elif args.quick:
        specs = quick_scenarios()
    else:
        specs = registry()
    out_path = args.output if args.output is not None else default_artifact_path()

    def progress(name: str, record: dict) -> None:
        if args.json:
            return
        wall = record["wall_s"]
        if "build" in record:
            b = record["build"]
            print(
                f"  {name:<28} build     {wall['graph_build']:8.2f} s wall "
                f"({record.get('storage', 'memory')}, {b['num_chunks']} chunks, "
                f"{b['num_directed_edges']:,} edges, "
                f"peak RSS {record['max_rss_mb']['graph_build']:.0f} MiB) "
                f"verify {wall['traversal'] * 1e3:.2f} ms, "
                f"{record['counters']['total_edges_examined']:,} edges examined"
            )
            return
        if "dynamic" in record:
            d = record["dynamic"]
            print(
                f"  {name:<28} dynamic   {wall['traversal'] * 1e3:8.2f} ms wall "
                f"({d['mode']}, {d['updates']} updates, "
                f"{d['updates_per_sec']:,.0f} upd/s, modeled repair "
                f"{d['modeled_incremental_ms']:.2f} ms vs recompute "
                f"{d['modeled_recompute_ms']:.2f} ms = {d['modeled_speedup']:.1f}x)"
            )
            return
        if "cluster" in record:
            c = record["cluster"]
            lat = c["latency"]
            print(
                f"  {name:<28} cluster   {wall['traversal'] * 1e3:8.2f} ms wall "
                f"({c['mode']}, {c['replicas']} replicas) "
                f"{record['counters']['admitted']}/{record['counters']['arrivals']} admitted "
                f"({record['counters']['shed']} shed), "
                f"p99 {lat['p99_ms']:.2f} ms, {c['achieved_qps']:,.0f} q/s achieved"
            )
            return
        if "throughput" in record:
            t = record["throughput"]
            print(
                f"  {name:<28} serve     {wall['traversal'] * 1e3:8.2f} ms wall "
                f"(build {wall['graph_build']:.2f} s, partition {wall['partition']:.2f} s) "
                f"{t['queries']} queries, {t['queries_per_sec']:,.0f} q/s "
                f"({'batched' if t['batched'] else 'sequential'}, "
                f"{t['traversals']} traversals)"
            )
            return
        print(
            f"  {name:<28} traversal {wall['traversal'] * 1e3:8.2f} ms wall "
            f"(build {wall['graph_build']:.2f} s, partition {wall['partition']:.2f} s) "
            f"modeled {record['modeled_ms']['elapsed_ms']:.3f} ms, "
            f"{record['counters']['total_edges_examined']:,} edges examined"
        )

    if not args.json:
        # What an unpinned scenario runs on; a pin shows in `bench list` and
        # in each record.
        print(
            f"running {len(specs)} scenario(s), repeats={args.repeats}, "
            f"backend={config.backend_name}, kernels={KERNELS_LABEL}, "
            f"storage={config.storage}" + (", baseline mode" if args.baseline else "")
        )
    artifact = _run_suite(
        specs,
        config,
        label=args.label,
        quick=bool(args.quick),
        repeats=args.repeats,
        out_path=out_path,
        on_record=progress,
        baseline=args.baseline,
    )
    if args.json:
        print(json.dumps(artifact, indent=2))
    else:
        print(f"wrote {out_path}")
    return 0


def _cmd_bench_compare(args: argparse.Namespace, config) -> int:
    from repro.bench import compare_artifacts, load_artifact

    with _usage_errors():  # a missing, malformed or foreign artifact
        report = compare_artifacts(load_artifact(args.old), load_artifact(args.new))
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(f"comparing {args.old} -> {args.new}")
        for line in report.summary_lines():
            print(line)
    return 0 if report.ok else 1


def _serve_bench_validate(args: argparse.Namespace) -> None:
    """Reject the serve-bench flag combinations no constructor sees; every
    value's own range is its constructor's to check."""
    if args.arrivals == "closed":
        misplaced = [
            flag
            for flag, is_set in (
                ("--rate", args.rate is not None),
                ("--replicas", args.replicas is not None),
                ("--queue-limit", args.queue_limit is not None),
                ("--no-hedge", args.no_hedge),
                ("--hedge-quantile", args.hedge_quantile is not None),
                ("--slo-ms", args.slo_ms is not None),
            )
            if is_set
        ]
        if misplaced:
            raise _UsageError(
                f"{', '.join(misplaced)} only appl"
                f"{'ies' if len(misplaced) == 1 else 'y'} to open-loop arrivals; "
                "pass --arrivals poisson|bursty|diurnal"
            )
    elif args.hedge_quantile is not None:
        if args.no_hedge:
            raise _UsageError("--hedge-quantile contradicts --no-hedge; pick one")
        if args.replicas is not None and args.replicas < 2:
            raise _UsageError(
                "request hedging re-issues a straggler to a *second* replica; "
                f"--hedge-quantile needs --replicas >= 2, got {args.replicas}"
            )


def _cmd_serve_bench(args: argparse.Namespace, config) -> int:
    """Build every workload object first, so each constructor checks its
    flags before a graph exists; then replay closed- or open-loop."""
    from repro.bench.streams import _check_serving
    from repro.core.programs import PROGRAM_TABLE
    from repro.serve import MixedWorkload, ZipfWorkload
    from repro.serve.cluster import ClusterConfig, OpenLoopWorkload, make_arrivals

    _serve_bench_validate(args)
    closed = args.arrivals == "closed"
    replicas = 2 if args.replicas is None else args.replicas
    with _usage_errors():
        queries = ZipfWorkload(
            num_queries=args.queries,
            skew=args.skew,
            pool=args.pool,
            seed=args.seed + 2,
            program=args.program,
            **PROGRAM_TABLE[args.program].pick(max_hops=args.max_hops),
        )
        _check_serving(args.batch_size, args.cache_size, 1 if closed else replicas)
        if closed:
            workload = queries
            if args.update_rate > 0:
                workload = MixedWorkload(
                    queries=queries,
                    update_rate=args.update_rate,
                    edges_per_update=args.update_edges,
                    update_style=args.update_style,
                    update_seed=args.seed + 4,
                )
        else:
            workload = OpenLoopWorkload(
                queries=queries,
                arrivals=make_arrivals(
                    args.arrivals, 500.0 if args.rate is None else args.rate, seed=args.seed + 4
                ),
                num_updates=round(args.update_rate * args.queries) if args.update_rate > 0 else 0,
                edges_per_update=args.update_edges,
                update_style=args.update_style,
                update_seed=args.seed + 4,
            )
            cluster_config = ClusterConfig(
                queue_limit=64 if args.queue_limit is None else args.queue_limit,
                hedge=replicas >= 2,
                hedge_quantile=0.95 if args.hedge_quantile is None else args.hedge_quantile,
                slo_ms=args.slo_ms,
            )
    prepared = _prepare(args, config, _load_graph(args))
    try:
        if closed:
            return _serve_bench_closed(args, prepared, workload)
        return _serve_bench_open(args, prepared, workload, cluster_config, replicas)
    finally:
        prepared.close()


def _serve_bench_open(
    args: argparse.Namespace, prepared, workload, cluster_config, replicas: int
) -> int:
    from repro.bench.streams import serve_open
    from repro.graph.degree import out_degrees

    edges, config = prepared.edges, prepared.config
    stream = workload.generate(edges.num_vertices, degrees=out_degrees(edges), edges=edges)
    run = serve_open(
        prepared,
        stream,
        cluster_config,
        replicas=replicas,
        batch_size=args.batch_size,
        cache_size=args.cache_size,
        baseline=args.no_hedge,
    )
    counters, cluster = run.counters, run.section
    if args.prom is not None:
        _write_prometheus({"counters": counters, "cluster": cluster}, args.prom)
    if args.json:
        print(
            json.dumps(
                {
                    "graph": _graph_info(prepared.graph),
                    "workload": workload.describe(),
                    "backend": config.backend_name,
                    "kernels": KERNELS_LABEL,
                    "replicas": replicas,
                    "batch_size": args.batch_size,
                    "cache_size": args.cache_size,
                    "counters": counters,
                    "cluster": cluster,
                    "replica_snapshots": run.detail,
                },
                indent=2,
            )
        )
        return 0

    print(_stream_header(prepared, f"{replicas} replica(s)"))
    print(
        f"workload: {args.queries} {args.program} ops, zipf skew {args.skew}, "
        f"{args.arrivals} arrivals at {workload.arrivals.rate_qps:,.0f} q/s offered"
        + (f", {workload.num_updates} update batches" if workload.num_updates else "")
    )
    lat = cluster["latency"]
    print(
        f"  admitted {counters['admitted']}/{counters['arrivals']} "
        f"(shed {counters['shed']}), achieved {cluster['achieved_qps']:,.0f} q/s over "
        f"{cluster['virtual_makespan_ms']:.1f} virtual ms"
    )
    print(
        f"  latency p50 {lat['p50_ms']:.2f} ms, p95 {lat['p95_ms']:.2f} ms, "
        f"p99 {lat['p99_ms']:.2f} ms, max {lat['max_ms']:.2f} ms"
        + (
            f", SLO {lat['slo_ms']:.0f} ms violated {lat['slo_violations']}x"
            if lat["slo_ms"] is not None
            else ""
        )
    )
    if cluster["config"]["hedge"]:
        print(
            f"  hedging: {cluster['hedges_issued']} issued, {cluster['hedges_won']} won, "
            f"{cluster['hedges_cancelled']} cancelled, "
            f"{cluster['hedges_preempted']} preempted, "
            f"{cluster['primaries_discarded']} primaries discarded"
        )
    if counters["updates"]:
        print(
            f"  updates: {counters['updates']} applied (graph version "
            f"{counters['final_graph_version']}), "
            f"{cluster['shed_during_update']} arrivals shed behind update drains"
        )
    return 0


def _serve_bench_closed(args: argparse.Namespace, prepared, workload) -> int:
    from repro.bench.streams import serve_closed
    from repro.graph.degree import out_degrees

    edges, config = prepared.edges, prepared.config
    degrees = out_degrees(edges)
    mixed = args.update_rate > 0
    # A mixed stream draws its updates from the edges, a read stream its sources.
    stream = workload.generate(edges if mixed else edges.num_vertices, degrees=degrees)

    if not args.json:
        print(_stream_header(prepared, f"delegates {prepared.graph.num_delegates:,}"))
        line = (
            f"workload: {args.queries} {args.program} ops, "
            f"zipf skew {args.skew}, pool {args.pool}, "
            f"batch {args.batch_size}, cache {args.cache_size}"
        )
        if mixed:
            line += (
                f", update rate {args.update_rate} "
                f"({args.update_edges} {args.update_style} edges/batch)"
            )
        print(line)

    knobs = {"batch_size": args.batch_size, "cache_size": args.cache_size}
    batched = serve_closed(prepared, stream, **knobs).detail
    sequential = (
        None if args.no_baseline else serve_closed(prepared, stream, baseline=True, **knobs).detail
    )
    if args.prom is not None:
        _write_prometheus(batched.stats_snapshot(), args.prom)

    if args.json:
        out = {
            "graph": _graph_info(prepared.graph),
            "workload": workload.describe(),
            "backend": config.backend_name,
            "kernels": KERNELS_LABEL,
            "batch_size": args.batch_size,
            "cache_size": args.cache_size,
            "batched": batched.stats_snapshot(),
        }
        if sequential is not None:
            out["sequential"] = sequential.stats_snapshot()
            out["speedup"] = (
                sequential.stats.wall_s / batched.stats.wall_s
                if batched.stats.wall_s > 0
                else None
            )
        print(json.dumps(out, indent=2))
        return 0

    def report(tag: str, service) -> None:
        s, c = service.stats, service.cache.stats
        line = (
            f"  {tag:<10} {s.queries_per_sec:10,.0f} q/s  "
            f"({s.queries} queries in {s.wall_s:.3f} s, {s.traversals} traversals, "
            f"{s.batches} batches, cache hit rate {c.hit_rate:.0%}, "
            f"{c.evictions} evictions)"
        )
        if s.updates:
            line += (
                f"\n  {'':<10} {s.updates} update batches in {s.update_wall_s:.3f} s, "
                f"{s.epoch_bumps} epoch bumps, {s.entries_invalidated} entries invalidated"
            )
        print(line)

    report("batched", batched)
    if sequential is not None:
        report("sequential", sequential)
        if batched.stats.wall_s > 0:
            print(
                f"  speedup    {sequential.stats.wall_s / batched.stats.wall_s:10.2f}x "
                f"queries/sec over sequential run_many"
            )
    return 0


def _write_prometheus(snapshot: dict, path: Path) -> None:
    """Write ``snapshot`` as Prometheus text exposition format to ``path``."""
    from repro.obs import prometheus_text

    path.write_text(prometheus_text(snapshot))
    print(f"prometheus: wrote {path}", file=sys.stderr)


def _cmd_trace_summarize(args: argparse.Namespace, config) -> int:
    from repro.obs import load_trace, summarize_events, summary_lines

    with _usage_errors():  # a missing, unreadable or foreign trace
        events = load_trace(args.path)
    summary = summarize_events(events)
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"trace: {args.path}")
    for line in summary_lines(summary):
        print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.  The one place an error
    is printed: a :class:`_UsageError` ends in ``error: <message>`` and 2."""
    from repro.exec.config import ExecConfig
    from repro.partition.layout import ClusterLayout

    args = build_parser().parse_args(argv)
    try:
        _check_weights_arg(args)
        with _usage_errors():
            if getattr(args, "layout", None) is not None:
                args.layout = ClusterLayout.from_notation(args.layout)
            config = ExecConfig.resolve(
                **{axis: getattr(args, axis) for axis in getattr(args, "exec_axes", ())}
            )
        with _tracing(config):
            return args.func(args, config)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
