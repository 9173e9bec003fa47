"""Fluent facade over the generate → partition → traverse pipeline.

The library's building blocks (edge lists, layouts, degree separation, the
traversal engine, frontier programs) compose explicitly, which the examples
and benchmarks need — but the common workflows are three lines of
boilerplate.  :func:`session` provides the one-liner:

>>> import repro
>>> result = (
...     repro.session(layout="2x1x2")
...     .generate(scale=10, seed=7)
...     .threshold(repro.auto)
...     .run(repro.BFSLevels(source=0))
... )
>>> int(result.distances[0])
0

A :class:`Session` collects configuration fluently (every setter returns the
session); :meth:`Session.build` partitions the graph once and returns a
:class:`GraphSession` with algorithm shorthands — ``graph.bfs()``,
``graph.components()``, ``graph.parents()``, ``graph.khop()``,
``graph.campaign()`` — all running through the same generic
:class:`repro.core.engine.TraversalEngine`.  Calling an algorithm (or
``run``) directly on the :class:`Session` builds implicitly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.cluster.hardware import HardwareSpec
from repro.core.campaign import Campaign, run_campaign
from repro.core.engine import TraversalEngine
from repro.core.options import BFSOptions
from repro.core.programs import (
    PROGRAM_TABLE,
    BFSLevels,
    BFSParents,
    ConnectedComponents,
    FrontierProgram,
    KHopReachability,
    make_program,
)
from repro.core.programs.table import names_where
from repro.core.results import TraversalResult
from repro.exec.config import ExecConfig
from repro.graph.degree import out_degrees, resolve_sources
from repro.graph.edgelist import EdgeList
from repro.graph.generators import generate_graph
from repro.partition.delegates import suggest_threshold
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import PartitionedGraph, build_partitions

__all__ = ["auto", "session", "Session", "GraphSession"]


class _Auto:
    """Sentinel for "derive this setting from the data" (``repro.auto``)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "auto"


#: Pass to :meth:`Session.threshold` to use the paper's suggested TH.
auto = _Auto()


def session(
    layout: str | ClusterLayout = "4x1x2",
    options: BFSOptions | None = None,
    hardware: HardwareSpec | None = None,
    backend=None,
    kernels=None,
    storage: str | None = None,
) -> "Session":
    """Start a fluent traversal session over a virtual cluster.

    Parameters
    ----------
    layout:
        Cluster geometry, either a :class:`repro.partition.ClusterLayout` or
        the ``"nodes x ranks-per-node x gpus-per-rank"`` notation the CLI
        uses (e.g. ``"4x1x2"``).
    options:
        Engine options; defaults to the paper's main configuration.
    hardware:
        Performance-model hardware; defaults to the paper's Ray system.
    backend:
        Execution backend for the super-steps: ``"inline"`` (default),
        ``"process"`` for the multiprocessing pool over shared memory,
        ``"thread"`` for the shared thread pool, or a live
        :class:`repro.exec.ExecutionBackend`; can also be set fluently via
        :meth:`Session.backend`.
    kernels:
        The kernels label: ``"numpy"`` or ``"auto"`` (default; both name
        the one implementation, :mod:`repro.core.kernels`).
    storage:
        Graph storage mode: ``"memory"`` (default), ``"mmap"`` for a
        memory-mapped store, ``"compressed"`` for a store with delta+varint
        nn/nd adjacency, or ``None`` for the ``REPRO_STORAGE`` environment
        default; can also be set fluently via :meth:`Session.storage`.
        Results and counters are storage-invariant; only memory and
        wall-clock change.

    All three are resolved once, here, into one
    :class:`repro.exec.ExecConfig`; a bad name raises :class:`ValueError`.
    """
    return Session(
        layout=layout,
        options=options,
        hardware=hardware,
        backend=backend,
        kernels=kernels,
        storage=storage,
    )


class Session:
    """Mutable fluent builder for one partitioned graph + engine."""

    def __init__(
        self,
        layout: str | ClusterLayout = "4x1x2",
        options: BFSOptions | None = None,
        hardware: HardwareSpec | None = None,
        backend=None,
        kernels=None,
        storage: str | None = None,
    ) -> None:
        self._layout = (
            layout if isinstance(layout, ClusterLayout) else ClusterLayout.from_notation(layout)
        )
        self._options = options
        self._hardware = hardware
        self._config = ExecConfig.resolve(backend=backend, kernels=kernels, storage=storage)
        self._storage_path: Path | None = None
        self._edges: EdgeList | None = None
        self._threshold: int | _Auto = auto
        self._built: GraphSession | None = None
        self._tracer = None
        self._trace_path: Path | None = None

    # ------------------------------------------------------------------ #
    # Configuration (each returns self)
    # ------------------------------------------------------------------ #
    def load(self, edges: EdgeList | str | Path) -> "Session":
        """Use an existing edge list, or load one from a ``.npz`` path."""
        if isinstance(edges, (str, Path)):
            from repro.graph.io import load_npz

            edges = load_npz(Path(edges))
        if not isinstance(edges, EdgeList):
            raise TypeError(f"expected an EdgeList or a path, got {type(edges).__name__}")
        self._edges = edges
        self._built = None
        return self

    def generate(
        self,
        scale: int = 14,
        kind: str = "rmat",
        seed: int = 11,
        weights: int | None = None,
    ) -> "Session":
        """Generate a prepared graph (RMAT or a synthetic substitute).

        ``weights`` seeds deterministic edge-keyed ``float64`` weights for
        the weighted program zoo (``None`` = unweighted).
        """
        self._edges = generate_graph(kind, scale, seed, weights_seed=weights)
        self._built = None
        return self

    def threshold(self, threshold: int | _Auto) -> "Session":
        """Set the degree threshold TH (``repro.auto`` = paper's suggestion)."""
        if not isinstance(threshold, _Auto):
            threshold = int(threshold)
            if threshold < 1:
                raise ValueError(f"threshold must be >= 1, got {threshold}")
        self._threshold = threshold
        self._built = None
        return self

    def options(self, options: BFSOptions | None = None, **kwargs) -> "Session":
        """Set engine options, either whole or by keyword (e.g. ``uniquify=True``)."""
        if options is not None and kwargs:
            raise ValueError("pass either an options object or keywords, not both")
        if options is None:
            options = BFSOptions(**kwargs)
        self._options = options
        self._built = None
        return self

    def hardware(self, hardware: HardwareSpec) -> "Session":
        """Set the performance-model hardware."""
        self._hardware = hardware
        self._built = None
        return self

    def backend(self, backend) -> "Session":
        """Choose where super-steps execute (``"inline"`` / ``"process"`` /
        ``"thread"``).

        Accepts a backend registry name, a live
        :class:`repro.exec.ExecutionBackend` instance, or ``None`` for the
        ``REPRO_BACKEND`` environment default.  An already-built graph
        session switches in place (the partitioning is reused).

        >>> import repro  # doctest: +SKIP
        >>> repro.session().generate(scale=16).backend("process").bfs(0)
        """
        self._config = self._config.override(backend=backend)
        if self._built is not None:
            self._built.backend(self._config.backend)
        return self

    def storage(self, storage: str | None, path: str | Path | None = None) -> "Session":
        """Choose the graph storage mode (``"memory"`` / ``"mmap"`` /
        ``"compressed"``).

        ``None`` falls back to the ``REPRO_STORAGE`` environment default.
        For the store-backed modes ``path`` optionally pins the store
        directory (default: a process-lifetime temporary directory).
        Traversal results and counters are storage-invariant.

        >>> import repro  # doctest: +SKIP
        >>> repro.session().generate(scale=16).storage("compressed").bfs(0)
        """
        self._config = self._config.override(storage=storage)
        self._storage_path = Path(path) if path is not None else None
        self._built = None
        return self

    def trace(self, path: str | Path | None = None) -> "Session":
        """Enable tracing: install this session's tracer process-wide.

        Every traversal, super-step and serving operation run after this
        call records spans into the session's :class:`repro.obs.Tracer`
        (one per session, created on first call).  ``path`` pins a default
        export destination for :meth:`write_trace`.  Tracing never changes
        results or counters — only wall clock, within noise.

        >>> import repro  # doctest: +SKIP
        >>> s = repro.session().generate(scale=14).trace("run.trace.json")
        >>> s.bfs(0); s.write_trace()
        """
        from repro.obs import Tracer, set_tracer

        if self._tracer is None:
            self._tracer = Tracer()
        set_tracer(self._tracer)
        if path is not None:
            self._trace_path = Path(path)
        return self

    @property
    def tracer(self):
        """The session's tracer (``None`` until :meth:`trace` is called)."""
        return self._tracer

    def write_trace(self, path: str | Path | None = None) -> Path:
        """Export the collected trace; format picked by suffix.

        ``.jsonl`` writes line-delimited events, anything else Chrome
        ``trace_event`` JSON.  ``path`` defaults to the one given to
        :meth:`trace`.
        """
        from repro.obs import write_trace

        if self._tracer is None:
            raise RuntimeError("tracing is not enabled: call .trace() first")
        target = Path(path) if path is not None else self._trace_path
        if target is None:
            raise RuntimeError("no trace path: pass one here or to .trace(path)")
        return write_trace(self._tracer, target)

    # ------------------------------------------------------------------ #
    # Building and running
    # ------------------------------------------------------------------ #
    def build(self) -> "GraphSession":
        """Partition the graph and return the runnable handle (cached)."""
        if self._built is not None:
            return self._built
        if self._edges is None:
            raise RuntimeError(
                "no graph configured: call .load(edges) or .generate(scale=...) first"
            )
        threshold = self._threshold
        if isinstance(threshold, _Auto):
            threshold = suggest_threshold(self._edges, self._layout.num_gpus)
        graph = build_partitions(self._edges, self._layout, threshold)
        if self._config.storage != "memory":
            from repro.storage import apply_storage

            graph = apply_storage(graph, self._config.storage, path=self._storage_path)
        engine = TraversalEngine(
            graph,
            options=self._options,
            hardware=self._hardware,
            backend=self._config.backend,
            kernels=self._config.kernels,
        )
        self._built = GraphSession(edges=self._edges, graph=graph, engine=engine)
        return self._built

    def run(self, program: FrontierProgram) -> TraversalResult:
        """Build (if needed) and run one frontier program."""
        return self.build().run(program)

    def bfs(self, source: int) -> TraversalResult:
        """Build (if needed) and run BFS levels from ``source``."""
        return self.build().bfs(source)

    def parents(self, source: int) -> TraversalResult:
        """Build (if needed) and run the BFS parent-tree program."""
        return self.build().parents(source)

    def components(self) -> TraversalResult:
        """Build (if needed) and run connected components."""
        return self.build().components()

    def khop(self, source: int, max_hops: int) -> TraversalResult:
        """Build (if needed) and run k-hop reachability."""
        return self.build().khop(source, max_hops)

    def sssp(self, source: int, delta: float | str = "auto") -> TraversalResult:
        """Build (if needed) and run delta-stepping SSSP."""
        return self.build().sssp(source, delta=delta)

    def pagerank(self, **kwargs) -> TraversalResult:
        """Build (if needed) and run PageRank."""
        return self.build().pagerank(**kwargs)

    def wcc_hook(self) -> TraversalResult:
        """Build (if needed) and run hooking connected components."""
        return self.build().wcc_hook()

    def triangles(self) -> TraversalResult:
        """Build (if needed) and count triangles."""
        return self.build().triangles()

    def campaign(self, *args, **kwargs) -> Campaign:
        """Build (if needed) and run a multi-source campaign."""
        return self.build().campaign(*args, **kwargs)

    def run_many(self, *args, **kwargs) -> Campaign:
        """Build (if needed) and run many sources; see
        :meth:`GraphSession.run_many`."""
        return self.build().run_many(*args, **kwargs)

    def serve(self, *args, **kwargs):
        """Build (if needed) and start a query service; see
        :meth:`GraphSession.serve`."""
        return self.build().serve(*args, **kwargs)

    def serve_cluster(self, *args, **kwargs):
        """Build (if needed) and start a replicated serving tier; see
        :meth:`GraphSession.serve_cluster`."""
        return self.build().serve_cluster(*args, **kwargs)

    def bench(self, *args, **kwargs) -> dict:
        """Build (if needed) and wall-clock benchmark a program; see
        :meth:`GraphSession.bench`."""
        return self.build().bench(*args, **kwargs)


class GraphSession:
    """A partitioned graph bound to a traversal engine, with shorthands."""

    def __init__(self, edges: EdgeList, graph: PartitionedGraph, engine: TraversalEngine) -> None:
        self.edges = edges
        self.graph = graph
        self.engine = engine
        self._dynamic = None
        self._tracer = None
        self._trace_path: Path | None = None

    # ------------------------------------------------------------------ #
    # Generic execution
    # ------------------------------------------------------------------ #
    def run(self, program: FrontierProgram) -> TraversalResult:
        """Run any frontier program on this graph."""
        return self.engine.run(program)

    def backend(self, backend) -> "GraphSession":
        """Switch execution backends on the live engine (partition reused).

        ``backend`` is a registry name (``"inline"`` / ``"process"`` /
        ``"thread"``), a live :class:`repro.exec.ExecutionBackend`, or
        ``None`` for the environment default; the previously engine-owned
        backend is closed.
        """
        self.engine.use_backend(backend)
        return self

    @property
    def backend_name(self) -> str:
        """Registry name of the execution backend in effect."""
        return self.engine.backend_name

    def trace(self, path: str | Path | None = None) -> "GraphSession":
        """Enable tracing on the built graph; see :meth:`Session.trace`."""
        from repro.obs import Tracer, set_tracer

        if self._tracer is None:
            self._tracer = Tracer()
        set_tracer(self._tracer)
        if path is not None:
            self._trace_path = Path(path)
        return self

    @property
    def tracer(self):
        """The tracer installed by :meth:`trace` (``None`` until called)."""
        return self._tracer

    def write_trace(self, path: str | Path | None = None) -> Path:
        """Export the collected trace; see :meth:`Session.write_trace`."""
        from repro.obs import write_trace

        if self._tracer is None:
            raise RuntimeError("tracing is not enabled: call .trace() first")
        target = Path(path) if path is not None else self._trace_path
        if target is None:
            raise RuntimeError("no trace path: pass one here or to .trace(path)")
        return write_trace(self._tracer, target)

    @property
    def storage_name(self) -> str:
        """Storage mode backing this session's graph arrays."""
        return getattr(self.graph, "storage", "memory")

    def close(self) -> None:
        """Release the engine's execution backend (idempotent)."""
        self.engine.close()

    def __enter__(self) -> "GraphSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    @property
    def dynamic(self):
        """The underlying :class:`repro.dynamic.DynamicGraph` (``None`` until
        the first :meth:`mutate` turns the session mutable)."""
        return self._dynamic

    def mutate(
        self,
        delta=None,
        *,
        inserts=None,
        deletes=None,
        max_overlay_fraction: float = 0.05,
        max_degree_crossings: int | None = None,
    ):
        """Apply one edge-update batch to this session's graph.

        The first call turns the session mutable in place: the already-built
        partitioning is adopted by a :class:`repro.dynamic.DynamicGraph` (no
        rebuild) and the engine is swapped for a
        :class:`repro.dynamic.DynamicEngine`, so every subsequent
        ``bfs``/``components``/``serve``/``run_many`` call sees the mutated
        graph.  Pass either a prepared :class:`repro.dynamic.EdgeDelta` or
        ``inserts=`` / ``deletes=`` arrays of ``(u, v)`` pairs.

        >>> import repro  # doctest: +SKIP
        >>> graph = repro.session().generate(scale=14).build()
        >>> graph.mutate(inserts=[[0, 42]])
        >>> graph.bfs(0).distances[42]
        1

        Returns the :class:`repro.dynamic.AppliedDelta` of effective changes.
        """
        from repro.dynamic import DynamicEngine, DynamicGraph, EdgeDelta

        if self.storage_name != "memory":
            raise RuntimeError(
                f"mutate() requires memory storage, but this graph is "
                f"{self.storage_name}-backed (stores are immutable); rebuild "
                "with storage='memory' to mutate"
            )
        if delta is None:
            if inserts is None and deletes is None:
                raise ValueError("pass a delta or inserts=/deletes= edge pairs")
            delta = EdgeDelta.inserts(inserts if inserts is not None else [])
            if deletes is not None:
                dels = EdgeDelta.deletes(deletes)
                delta = EdgeDelta(
                    insert_src=delta.insert_src,
                    insert_dst=delta.insert_dst,
                    delete_src=dels.delete_src,
                    delete_dst=dels.delete_dst,
                )
        elif inserts is not None or deletes is not None:
            raise ValueError("pass either a delta object or keyword pairs, not both")
        if self._dynamic is None:
            self._dynamic = DynamicGraph(
                self.edges,
                self.graph.layout,
                self.graph.threshold,
                max_overlay_fraction=max_overlay_fraction,
                max_degree_crossings=max_degree_crossings,
                partitioned=self.graph,
            )
            self.engine = DynamicEngine(self._dynamic, engine=self.engine)
        applied = self.engine.apply_delta(delta)
        # Keep the session's shorthand views pointed at the live graph.
        self.edges = self._dynamic.edges
        self.graph = self._dynamic.partitioned
        return applied

    # ------------------------------------------------------------------ #
    # Algorithm shorthands
    # ------------------------------------------------------------------ #
    def bfs(self, source: int) -> TraversalResult:
        """Hop distances from ``source`` (the paper's DOBFS)."""
        return self.run(BFSLevels(source=source))

    def parents(self, source: int) -> TraversalResult:
        """Graph500-style BFS parent tree from ``source``."""
        return self.run(BFSParents(source=source))

    def components(self) -> TraversalResult:
        """Connected-component labels by min-label propagation."""
        return self.run(ConnectedComponents())

    def khop(self, source: int, max_hops: int) -> TraversalResult:
        """Distances from ``source`` capped at ``max_hops`` levels."""
        return self.run(KHopReachability(source=source, max_hops=max_hops))

    def sssp(self, source: int, delta: float | str = "auto") -> TraversalResult:
        """Shortest-path distances from ``source`` over edge weights.

        Runs the delta-stepping driver (``delta="auto"`` picks the bucket
        width from the average degree; ``delta=float("inf")`` degrades to
        the Bellman-Ford schedule).  Requires a weighted graph — generate
        with ``weights=<seed>`` or load a weighted edge list.
        """
        from repro.weighted import DeltaSteppingSSSP

        return self.run(DeltaSteppingSSSP(source, delta=delta))

    def pagerank(
        self,
        damping: float = 0.85,
        mode: str = "fixed",
        iterations: int = 20,
        eps: float = 1e-7,
    ) -> TraversalResult:
        """Deterministic fixed-point PageRank (``"fixed"`` or ``"push"``)."""
        from repro.weighted import PageRank

        return self.run(
            PageRank(damping=damping, mode=mode, iterations=iterations, eps=eps)
        )

    def wcc_hook(self) -> TraversalResult:
        """Connected components by min-label hooking + pointer jumping."""
        from repro.weighted import ComponentsHooking

        return self.run(ComponentsHooking())

    def triangles(self) -> TraversalResult:
        """Exact global and per-vertex triangle counts."""
        from repro.weighted import TriangleCount

        return self.run(TriangleCount())

    def campaign(
        self,
        sources: np.ndarray | list[int] | int = 5,
        program_factory=None,
        seed: int = 11,
        validate=None,
        on_result=None,
    ) -> Campaign:
        """Run one program per source and aggregate (the paper's protocol).

        ``sources`` may be explicit vertices or a count of random sources
        drawn degree-weighted (the Graph500 convention of sampling sources
        with at least one edge).
        """
        return run_campaign(
            self.engine,
            resolve_sources(sources, out_degrees(self.edges), rng=seed),
            program_factory=program_factory,
            validate=validate,
            on_result=on_result,
        )

    def run_many(
        self,
        sources: np.ndarray | list[int] | int,
        program: str = "levels",
        batch_size: int | str | None = "auto",
        max_hops: int = 3,
        seed: int = 11,
    ) -> Campaign:
        """Run one single-source program per source, batched when possible.

        Compatible source lists (``levels`` and ``khop`` — the visit-once,
        level-valued programs) are deduplicated and routed through the
        engine's fused MS-BFS path in sweeps of up to ``batch_size`` lanes;
        answers are bit-identical to sequential runs.  ``batch_size="auto"``
        picks the engine default; ``None``/1 forces sequential execution.

        ``sources`` may be explicit vertices or a count of random sources
        (drawn as in :meth:`campaign`).
        """
        row = PROGRAM_TABLE.get(program)
        if row is None or row.batched is None:
            raise ValueError(
                f"unknown program {program!r}; run_many batches {names_where('batched')}"
            )
        params = row.pick(max_hops=max_hops)
        programs = [
            make_program(program, int(s), **params)
            for s in resolve_sources(sources, out_degrees(self.edges), rng=seed)
        ]
        if batch_size == "auto":
            from repro.core.engine import DEFAULT_BATCH_SIZE

            batch_size = DEFAULT_BATCH_SIZE
        return self.engine.run_many(programs, batch_size=batch_size)

    def serve(
        self,
        batch_size: int = 32,
        cache_size: int = 1024,
        batched: bool = True,
        backend=None,
    ):
        """A :class:`repro.serve.QueryService` bound to this graph.

        ``backend`` (a name or :class:`repro.exec.ExecutionBackend`) switches
        this session's engine before serving, so batched sweeps can run on
        the process pool; ``None`` keeps the engine's current backend.

        >>> import repro  # doctest: +SKIP
        >>> service = repro.session().generate(scale=14).serve(batch_size=32)
        >>> from repro.serve import Query
        >>> service.query(Query("levels", source=0)).distances.shape
        (16384,)
        """
        from repro.serve import QueryService

        return QueryService(
            self.engine,
            batch_size=batch_size,
            cache_size=cache_size,
            batched=batched,
            backend=backend,
        )

    def serve_cluster(
        self,
        num_replicas: int = 2,
        *,
        batch_size: int = 32,
        cache_size: int = 1024,
        backend=None,
        queue_limit: int = 64,
        hedge: bool = True,
        hedge_quantile: float = 0.95,
        slo_ms: float | None = None,
        router: str = "affinity",
    ):
        """A replicated serving tier over this graph: ``(pool, dispatcher)``.

        Builds a :class:`repro.serve.ReplicaPool` of ``num_replicas`` query
        services sharing this graph (and, for frozen graphs, one execution
        backend), fronted by a :class:`repro.serve.ClusterDispatcher` that
        replays open-loop arrival streams on a virtual clock with admission
        control and request hedging.  The caller owns the pool: close it (or
        use it as a context manager) when done.

        >>> import repro  # doctest: +SKIP
        >>> from repro.serve import OpenLoopWorkload
        >>> sess = repro.session().generate(scale=12).build()
        >>> pool, dispatcher = sess.serve_cluster(3, slo_ms=50.0)
        >>> with pool:
        ...     stream = OpenLoopWorkload().generate(sess.edges.num_vertices)
        ...     snapshot = dispatcher.run(stream)
        >>> snapshot["cluster"]["latency"]["p99_ms"]  # doctest: +SKIP
        """
        from repro.serve.cluster import ClusterConfig, ClusterDispatcher, ReplicaPool

        pool = ReplicaPool(
            self.graph,
            num_replicas,
            backend=backend,
            batch_size=batch_size,
            cache_size=cache_size,
        )
        config = ClusterConfig(
            queue_limit=queue_limit,
            hedge=hedge and num_replicas >= 2,
            hedge_quantile=hedge_quantile,
            slo_ms=slo_ms,
            router=router,
        )
        return pool, ClusterDispatcher(pool, config)

    def bench(
        self,
        program: FrontierProgram | None = None,
        repeats: int = 3,
        check_determinism: bool = True,
    ) -> dict:
        """Wall-clock benchmark one program on this graph.

        Runs ``program`` (default: BFS levels from vertex 0) ``repeats``
        times through :func:`repro.bench.runner.time_program`, asserting that
        every pass produces identical workload counters, and returns the
        record: per-phase wall-clock minima in seconds (``wall_s``), modeled
        times (``modeled_ms``) and the deterministic ``counters``.

        >>> import repro  # doctest: +SKIP
        >>> repro.session().generate(scale=12).bench()["wall_s"]["traversal"] > 0
        True
        """
        from repro.bench.runner import time_program

        if program is None:
            program = BFSLevels(source=0)
        return time_program(
            self.engine,
            lambda: program,
            repeats=repeats,
            check_determinism=check_determinism,
        )
