"""The benchmark scenario registry.

A :class:`Scenario` pins *everything* that affects a measurement: the graph
family and size, the RNG seeds (all drawn through :mod:`repro.utils.rng`, so
two runs of the same scenario produce bit-identical graphs, sources and
traversals on any machine), the cluster layout, the degree threshold, the
frontier program and the engine option set.

The registry spans the axes the paper's evaluation varies:

* **graph families** — Graph500 RMAT at several scales, uniform (Erdős–Rényi
  style) graphs, and the long-tail WDC-like web graph whose BFS runs for many
  thin iterations;
* **the shipped frontier programs** — BFS levels, BFS parent trees,
  connected components, k-hop reachability, plus the weighted zoo
  (:mod:`repro.weighted`): delta-stepping SSSP (with its Bellman-Ford
  baseline recorded side by side), fixed-point PageRank, hooking
  components and triangle counting;
* **the BFS option grid** — direction optimization on/off, blocking vs
  non-blocking delegate reduction (BR/IR), local-all2all + uniquify, and a
  sweep of delegate thresholds (which moves work between the nn exchange and
  the delegate reductions).

Scenarios flagged ``quick`` form the CI smoke subset (small scales, a couple
of seconds each); the rest only run in full sweeps.

Since the engine's execution layer became pluggable, scenarios may also
**pin** a backend: the registry pins process-pool twins of the large RMAT
sweeps, every other scenario is unpinned and runs on ``$REPRO_BACKEND`` (or
inline), and ``repro bench run --backend`` forces any subset onto one
backend — :class:`repro.exec.ExecConfig` applies that precedence.  The
backend is not part of the scenario *spec* — counters are backend-invariant,
so cross-backend artifacts must compare cleanly — and is recorded per
artifact record instead.

Scenarios may also pin a **storage** mode (``memory`` / ``mmap`` /
``compressed``), handled exactly like the backend pin: not part of the spec
(counters are storage-invariant), recorded per artifact record, overridable
with ``repro bench run --storage``.

Beyond the traversal scenarios, the registry carries the **stream kinds** —
``serve``, ``serve_cluster``, ``dynamic`` and ``build`` — each one row of
:data:`repro.bench.streams.STREAM_TABLE`, which says what the kind replays,
which fields identify it, how its fields are checked and what its baseline
mode (``repro bench run --baseline``) replays instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.streams import STREAM_TABLE, TRAVERSAL
from repro.core.options import BFSOptions
from repro.core.programs.table import PROGRAM_TABLE, make_program
from repro.exec.config import axis_name
from repro.graph.degree import out_degrees, resolve_sources
from repro.graph.edgelist import EdgeList
from repro.graph.generators import GRAPH_KINDS, generate_edge_chunks, generate_graph

__all__ = ["Scenario", "REGISTRY", "registry", "quick_scenarios", "find_scenarios"]

#: The stream kinds, in :data:`repro.bench.streams.STREAM_TABLE` order.
STREAM_KINDS = tuple(STREAM_TABLE)

#: What a scenario may run: every row of the program table (single-source
#: programs receive the scenario's sources, the :data:`SOURCE_FREE` ones run
#: once; for ``sssp`` the runner records the Bellman-Ford baseline alongside)
#: plus the :data:`STREAM_KINDS`.
PROGRAMS = (*PROGRAM_TABLE, *STREAM_KINDS)

#: Program parameter -> the :class:`Scenario` field that holds it.
_PARAM_FIELDS = {
    "max_hops": "max_hops",
    "delta": "delta",
    "damping": "damping",
    "mode": "pagerank_mode",
    "iterations": "iterations",
}

#: Programs that ignore the source vertex and run exactly once per scenario.
SOURCE_FREE = tuple(name for name, row in PROGRAM_TABLE.items() if not row.takes_source)


@dataclass(frozen=True)
class Scenario:
    """One fully-pinned benchmark configuration."""

    name: str
    #: Graph family: ``rmat``, ``uniform`` or ``wdc``.
    kind: str
    #: log2 of the vertex count.
    scale: int
    #: Frontier program to run (one of :data:`PROGRAMS`).
    program: str
    #: Engine options.
    options: BFSOptions = field(default_factory=BFSOptions)
    #: Cluster geometry in the CLI's notation.
    layout: str = "4x1x2"
    #: Degree threshold TH; ``None`` uses the paper's suggestion.
    threshold: int | None = None
    #: Graph-generation seed (fed to :func:`repro.utils.rng.make_rng`).
    seed: int = 11
    #: How many traversal sources to run (components runs once regardless).
    sources: int = 2
    #: Hop cap for the khop program.
    max_hops: int = 3
    #: Whether this scenario belongs to the CI smoke subset.
    quick: bool = False
    #: Execution backend pin (``inline``, ``process`` or ``thread``), or
    #: ``None``: unpinned, the scenario runs on ``$REPRO_BACKEND`` / inline,
    #: and ``bench run --backend`` overrides either.  Deliberately *not* part
    #: of :meth:`describe`: counters are backend-invariant by construction,
    #: so artifacts recorded on different backends stay comparable (the
    #: comparator flags any drift as a correctness finding); the backend that
    #: ran is recorded per artifact record instead.
    backend: str | None = None
    #: Adjacency storage pin (``memory``, ``mmap`` or ``compressed``),
    #: handled exactly like ``backend``.  Scenarios that mutate their graph
    #: (dynamic, serve with updates) run on memory regardless: stores are
    #: immutable.
    storage: str | None = None
    # --- serving scenarios only (program == "serve") ------------------- #
    #: Lanes per fused MS-BFS sweep.
    batch_size: int = 32
    #: Zipf exponent of the query stream's source popularity.
    zipf_skew: float = 1.0
    #: Query stream length.
    num_queries: int = 256
    #: Candidate source pool the Zipf ranks map onto.
    pool: int = 192
    #: LRU result-cache capacity.
    cache_size: int = 128
    # --- cluster scenarios only (program == "serve_cluster") ----------- #
    #: Arrival process of the open-loop stream: "poisson", "bursty" or
    #: "diurnal".
    arrivals: str = "poisson"
    #: Long-run average offered load, queries per (virtual) second.
    arrival_rate_qps: float = 500.0
    #: Serving replicas in the pool.
    num_replicas: int = 3
    #: Admission bound: maximum in-flight requests (0 = unbounded).
    queue_limit: int = 64
    #: Hedge a straggler once its age passes this latency quantile.
    hedge_quantile: float = 0.95
    #: Completed requests required before hedging arms.
    hedge_min_samples: int = 32
    #: Latency objective (ms) for the SLO-violation counter; None disables.
    slo_ms: float | None = 50.0
    #: Request router: "affinity" (source-hashed) or "least-queue".
    router: str = "affinity"
    #: On/off cycle length (ms) of bursty arrivals.
    burst_period_ms: float = 200.0
    #: Fraction of each bursty cycle that carries traffic.
    burst_duty: float = 0.25
    #: Update batches spliced into the open-loop stream (0 = read-only).
    #: Each is fanned out to every replica via epoch-bump invalidation;
    #: size and style reuse ``update_edges`` / ``update_style``.
    cluster_updates: int = 0
    # --- dynamic scenarios only (program == "dynamic") ----------------- #
    #: Which answer is maintained across the stream: "levels" or "components".
    maintained: str = "levels"
    #: Update style of the stream ("uniform" or "pa").
    update_style: str = "uniform"
    #: Update batches applied.
    update_batches: int = 4
    #: Undirected updates per batch.
    update_edges: int = 2048
    #: Share of each batch that deletes existing edges.
    delete_fraction: float = 0.0
    # --- build scenarios only (program == "build") --------------------- #
    #: Edges per generator chunk.  Spec identity for build scenarios: the
    #: chunked generators draw per chunk, so a different chunking is a
    #: different (equally valid) graph.
    chunk_edges: int = 1 << 20
    #: Edges per external-sort block (bounds build memory; not identity —
    #: the built store is block-size-invariant).
    block_edges: int = 1 << 20
    # --- weighted zoo scenarios (sssp / pagerank / wcc_hook / triangles)  #
    #: Edge-weight seed threaded to the graph generator.  Spec identity — a
    #: different seed draws different weights, i.e. a different weighted
    #: graph.  SSSP scenarios require it; the other zoo programs ignore
    #: weights and may run on unweighted graphs.
    weights: int | None = None
    #: Delta-stepping bucket width: ``"auto"``, ``inf`` (Bellman-Ford
    #: schedule) or a positive float.
    delta: float | str = "auto"
    #: PageRank damping factor.
    damping: float = 0.85
    #: PageRank iteration schedule: ``"fixed"`` (exact fixed-point sweeps)
    #: or ``"push"`` (residual push until drained).
    pagerank_mode: str = "fixed"
    #: Sweep count of the fixed PageRank schedule.
    iterations: int = 20

    def __post_init__(self) -> None:
        if self.program not in PROGRAMS:
            raise ValueError(
                f"unknown program {self.program!r}; expected one of {PROGRAMS}"
            )
        if self.kind not in GRAPH_KINDS:
            raise ValueError(f"unknown graph kind {self.kind!r}")
        STREAM_TABLE.get(self.program, TRAVERSAL).probe(self)
        row = self._traversed_row()
        if row is not None:
            if row.cls.needs_weights and self.weights is None:
                raise ValueError(
                    f"{row.name} scenarios traverse edge weights; set weights=<seed>"
                )
            # The constructors own every parameter range check.
            make_program(row.name, 0, **self._program_params(row))
        for axis, pin in self.pins.items():
            if pin is not None:
                object.__setattr__(self, axis, axis_name(axis, pin))

    @property
    def pins(self) -> dict:
        """The run-time axes this scenario pins (``None`` = unpinned), as
        :meth:`repro.exec.ExecConfig.pinned` takes them."""
        return {"backend": self.backend, "storage": self.storage}

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #
    def _traversed_row(self):
        """The program-table row this scenario traverses: its program's, a
        dynamic scenario's maintained program's, ``None`` for other streams."""
        name = self.maintained if self.program == "dynamic" else self.program
        return PROGRAM_TABLE.get(name)

    def _program_params(self, row) -> dict:
        """The row's declared parameters, read off this scenario's fields."""
        return row.pick(**{name: getattr(self, f) for name, f in _PARAM_FIELDS.items()})

    def build_edges(self) -> EdgeList:
        """Generate this scenario's (prepared) edge list deterministically."""
        return generate_graph(self.kind, self.scale, self.seed, weights_seed=self.weights)

    def edge_chunks(self):
        """The bounded edge-chunk stream of a build scenario (raw, unprepared).

        Peak memory is O(``chunk_edges``); the out-of-core build pipeline
        applies the same preparation (hash relabel, loop removal, edge
        doubling, dedup) the in-memory generators do.
        """
        if self.program != "build":
            raise ValueError(f"scenario {self.name!r} is not a build scenario")
        return generate_edge_chunks(self.kind, self.scale, self.seed, self.chunk_edges)

    def pick_sources(self, edges: EdgeList) -> list[int]:
        """Draw the scenario's traversal sources (degree-filtered, seeded)."""
        if self.program in SOURCE_FREE:
            return [0]
        picked = resolve_sources(self.sources, out_degrees(edges), rng=self.seed + 1)
        return [int(s) for s in picked]

    def update_stream(self, edges: EdgeList):
        """The pinned update stream of a dynamic scenario."""
        if self.program != "dynamic":
            raise ValueError(f"scenario {self.name!r} is not a dynamic scenario")
        from repro.dynamic.delta import update_stream

        return update_stream(
            edges,
            num_batches=self.update_batches,
            edges_per_batch=self.update_edges,
            style=self.update_style,
            delete_fraction=self.delete_fraction,
            seed=self.seed + 3,
        )

    def make_program(self, source: int):
        """Instantiate the frontier program for one source."""
        row = PROGRAM_TABLE.get(self.program)
        if row is None:
            raise ValueError(
                f"{self.program} scenarios replay a stream; "
                "they have no single frontier program"
            )
        return make_program(row.name, source, **self._program_params(row))

    def workload(self):
        """The pinned query stream of a serving (closed- or open-loop) scenario."""
        if self.program not in ("serve", "serve_cluster"):
            raise ValueError(f"scenario {self.name!r} is not a serving scenario")
        from repro.serve.workload import ZipfWorkload

        queries = ZipfWorkload(
            num_queries=self.num_queries,
            skew=self.zipf_skew,
            pool=self.pool,
            seed=self.seed + 2,
        )
        if self.program == "serve":
            return queries
        from repro.serve.cluster.openloop import OpenLoopWorkload, make_arrivals

        return OpenLoopWorkload(
            queries=queries,
            arrivals=make_arrivals(
                self.arrivals,
                self.arrival_rate_qps,
                seed=self.seed + 4,
                period_ms=self.burst_period_ms,
                duty=self.burst_duty,
            ),
            num_updates=self.cluster_updates,
            edges_per_update=self.update_edges,
            update_style=self.update_style,
            update_seed=self.seed + 4,
        )

    def cluster_config(self):
        """The cluster-tier configuration of a ``serve_cluster`` scenario:
        hedging whenever there is a second replica to hedge to (the replay's
        baseline mode turns it off — a run mode, not spec identity)."""
        if self.program != "serve_cluster":
            raise ValueError(f"scenario {self.name!r} is not a cluster scenario")
        from repro.serve.cluster.dispatcher import ClusterConfig

        return ClusterConfig(
            queue_limit=self.queue_limit,
            hedge=self.num_replicas >= 2,
            hedge_quantile=self.hedge_quantile,
            hedge_min_samples=self.hedge_min_samples,
            slo_ms=self.slo_ms,
            router=self.router,
        )

    def describe(self) -> dict:
        """JSON-stable description embedded in artifacts (spec identity)."""
        base = {
            "kind": self.kind,
            "scale": self.scale,
            "program": self.program,
            "options": self.options.label(),
            "layout": self.layout,
            "threshold": self.threshold,
            "seed": self.seed,
            "sources": self.sources if self.program not in SOURCE_FREE else 1,
            "max_hops": None,
        }
        if self.weights is not None:
            base["weights"] = self.weights
        row = PROGRAM_TABLE.get(self.program)
        if row is not None:
            # Each declared parameter under its scenario field name, in its
            # canonical type ("auto" stays a string, a numeric delta a float).
            values = self._program_params(row)
            for param in row.params:
                if param.name in values:
                    base[_PARAM_FIELDS[param.name]] = param.type(values[param.name])
        kind = STREAM_TABLE.get(self.program, TRAVERSAL)
        names = kind.fields + (kind.update_fields if kind.mutates(self) else ())
        base.update({name: getattr(self, name) for name in names})
        return base


def _options(**kwargs) -> BFSOptions:
    return BFSOptions(**kwargs)


def _build_registry() -> tuple[Scenario, ...]:
    quick_scale = 14
    scenarios = [
        # --- program coverage on the paper's main configuration ---------- #
        Scenario("rmat14-levels-do-br", "rmat", quick_scale, "levels", quick=True),
        Scenario("rmat14-parents-do-br", "rmat", quick_scale, "parents", quick=True),
        Scenario("rmat14-components", "rmat", quick_scale, "components", quick=True),
        Scenario("rmat14-khop3", "rmat", quick_scale, "khop", quick=True),
        # --- BFS option grid --------------------------------------------- #
        Scenario(
            "rmat14-levels-plain-br",
            "rmat",
            quick_scale,
            "levels",
            options=_options(direction_optimized=False),
            quick=True,
        ),
        Scenario(
            "rmat14-levels-do-ir",
            "rmat",
            quick_scale,
            "levels",
            options=_options(blocking_reduce=False),
            quick=True,
        ),
        Scenario(
            "rmat14-levels-do-lu-br",
            "rmat",
            quick_scale,
            "levels",
            options=_options(local_all2all=True, uniquify=True),
            quick=True,
        ),
        # --- delegate-threshold sweep (shifts exchange vs reduce work) --- #
        Scenario(
            "rmat14-levels-do-br-th4", "rmat", quick_scale, "levels", threshold=4, quick=True
        ),
        Scenario(
            "rmat14-levels-do-br-th256",
            "rmat",
            quick_scale,
            "levels",
            threshold=256,
            quick=True,
        ),
        # --- other graph families ---------------------------------------- #
        Scenario("uniform14-levels-do-br", "uniform", quick_scale, "levels", quick=True),
        Scenario("wdc14-levels-do-br", "wdc", quick_scale, "levels", quick=True),
        Scenario(
            "rmat15-levels-do-br", "rmat", 15, "levels", quick=True
        ),
        # --- weighted program zoo ----------------------------------------- #
        # SSSP scenarios always run BOTH schedules per repeat — the gated
        # traversal wall is delta-stepping's, the Bellman-Ford baseline's
        # wall and counters land in the record's "sssp" section, and the two
        # answers are asserted bit-identical — so every artifact carries the
        # delta-vs-BF pair the paper-style evaluation needs.  The quick pair
        # (sssp + pagerank) rides inside every CI backend/storage
        # counter gate.
        # delta pins the measured sweet spot on these graphs: "auto" buckets
        # (~1/avg-degree) run too many phases for the per-step overhead and
        # inf degenerates to Bellman-Ford; 0.125 relaxes ~2.6x fewer edges.
        # The quick scenario is the scale-16 pair because that is where the
        # relaxation savings dominate the per-phase overhead and the delta
        # wall decisively beats the BF wall (~1.5x); at scale 14 both
        # schedules are overhead-bound and the walls tie.
        Scenario(
            "sssp-rmat16-delta",
            "rmat",
            16,
            "sssp",
            weights=7,
            delta=0.125,
            quick=True,
        ),
        Scenario(
            "pagerank-rmat14-fixed", "rmat", quick_scale, "pagerank", weights=7, quick=True
        ),
        Scenario(
            "sssp-rmat14-delta", "rmat", quick_scale, "sssp", weights=7, delta=0.125
        ),
        Scenario(
            "pagerank-rmat15-push",
            "rmat",
            15,
            "pagerank",
            weights=7,
            pagerank_mode="push",
        ),
        Scenario("wcc-hook-rmat15", "rmat", 15, "wcc_hook"),
        Scenario("tri-rmat14", "rmat", quick_scale, "triangles"),
        # --- serving throughput (batch-size sweep x Zipf skew) ------------ #
        # Headline metric: queries/second of a Zipf-skewed stream through
        # QueryService (admission coalescing + LRU cache + MS-BFS batches).
        Scenario(
            "serve-rmat14-b16-zipf1.0",
            "rmat",
            quick_scale,
            "serve",
            batch_size=16,
            zipf_skew=1.0,
            quick=True,
        ),
        Scenario(
            "serve-rmat14-b32-zipf1.0",
            "rmat",
            quick_scale,
            "serve",
            batch_size=32,
            zipf_skew=1.0,
            quick=True,
        ),
        Scenario(
            "serve-rmat14-b32-zipf0.5",
            "rmat",
            quick_scale,
            "serve",
            batch_size=32,
            zipf_skew=0.5,
            quick=True,
        ),
        Scenario(
            "serve-rmat14-b16-uniform",
            "rmat",
            quick_scale,
            "serve",
            batch_size=16,
            zipf_skew=0.0,
            quick=True,
        ),
        # --- cluster serving: open-loop load, backpressure, hedging ------- #
        # Headline metric: tail latency (p99) under an offered load through
        # the replicated tier; the gated counters (arrivals/sheds/cache/
        # answers) are identical with hedging on or off, so a hedged and an
        # unhedged artifact of one scenario form a clean before/after pair.
        Scenario(
            "serve-cluster-rmat12-bursty",
            "rmat",
            12,
            "serve_cluster",
            num_queries=400,
            pool=256,
            cache_size=64,
            zipf_skew=1.0,
            arrivals="bursty",
            arrival_rate_qps=3000.0,
            burst_period_ms=200.0,
            burst_duty=0.25,
            num_replicas=3,
            queue_limit=48,
            hedge_quantile=0.9,
            hedge_min_samples=24,
            slo_ms=10.0,
            quick=True,
        ),
        Scenario(
            "serve-cluster-rmat14-diurnal",
            "rmat",
            quick_scale,
            "serve_cluster",
            num_queries=600,
            pool=320,
            cache_size=96,
            zipf_skew=1.0,
            arrivals="diurnal",
            arrival_rate_qps=2000.0,
            num_replicas=4,
            queue_limit=64,
            hedge_quantile=0.95,
            slo_ms=25.0,
            cluster_updates=3,
            update_edges=1024,
        ),
        # --- dynamic graphs: update streams + incremental maintenance ----- #
        # Headline metric: modeled (and wall) traversal time of incremental
        # repair vs full recompute, with both paths' counters recorded.
        Scenario(
            "dyn-rmat14-uniform-levels",
            "rmat",
            quick_scale,
            "dynamic",
            maintained="levels",
            update_style="uniform",
            update_batches=4,
            update_edges=2048,
            quick=True,
        ),
        Scenario(
            "dyn-rmat15-pa-components",
            "rmat",
            15,
            "dynamic",
            maintained="components",
            update_style="pa",
            update_batches=4,
            update_edges=2048,
        ),
        Scenario(
            "dyn-rmat16-pa-levels",
            "rmat",
            16,
            "dynamic",
            maintained="levels",
            update_style="pa",
            update_batches=8,
            update_edges=4096,
        ),
        # --- full-sweep-only scenarios (bigger scales, more sources) ----- #
        Scenario("rmat16-levels-do-br", "rmat", 16, "levels", sources=4),
        Scenario("rmat16-parents-do-br", "rmat", 16, "parents", sources=4),
        Scenario("rmat16-components", "rmat", 16, "components"),
        Scenario(
            "rmat16-levels-plain-br",
            "rmat",
            16,
            "levels",
            options=_options(direction_optimized=False),
            sources=4,
        ),
        Scenario("uniform16-levels-do-br", "uniform", 16, "levels", sources=4),
        Scenario("wdc16-levels-do-br", "wdc", 16, "levels", sources=4),
        Scenario("rmat17-levels-do-br", "rmat", 17, "levels", sources=4),
        # --- execution-backend axis: same workloads on the process pool --- #
        # Identical specs (and therefore counters) to their inline twins;
        # only wall-clock differs, which is exactly what the axis measures.
        Scenario(
            "rmat16-levels-do-br-process",
            "rmat",
            16,
            "levels",
            sources=4,
            backend="process",
        ),
        Scenario(
            "rmat17-levels-do-br-process",
            "rmat",
            17,
            "levels",
            sources=4,
            backend="process",
        ),
        # --- storage axis: same workload on a memory-mapped store ---------- #
        # Identical spec (and therefore counters) to rmat17-levels-do-br;
        # the adjacency lives in mmap-backed store segments instead of the
        # process heap, so only wall-clock and resident memory differ.
        Scenario(
            "rmat17-levels-do-br-mmap",
            "rmat",
            17,
            "levels",
            sources=4,
            storage="mmap",
        ),
        # --- out-of-core build: a graph ~4x larger than any other scenario - #
        # The gated phase is the streaming build itself (gate_phase =
        # "graph_build" in the record); edge generation, sorting, threshold
        # selection and CSR assembly all run in bounded blocks, so the build
        # works under a memory cap smaller than the graph (the CI leg runs
        # it under ulimit -v).  The traversal afterwards verifies the store.
        Scenario(
            "build-rmat19-stream",
            "rmat",
            19,
            "build",
            sources=2,
            storage="mmap",
            chunk_edges=1 << 20,
            block_edges=1 << 20,
        ),
    ]
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):  # pragma: no cover - registry typo guard
        raise AssertionError("duplicate scenario names in the bench registry")
    return tuple(scenarios)


#: The full, ordered scenario registry.
REGISTRY: tuple[Scenario, ...] = _build_registry()


def registry() -> tuple[Scenario, ...]:
    """All registered scenarios, in definition order."""
    return REGISTRY


def quick_scenarios() -> tuple[Scenario, ...]:
    """The CI smoke subset (small scales, a few seconds total)."""
    return tuple(s for s in REGISTRY if s.quick)


def find_scenarios(names: list[str]) -> tuple[Scenario, ...]:
    """Resolve scenario names, preserving registry order.

    Raises
    ------
    KeyError
        Naming every unknown scenario (with the valid names listed).
    """
    by_name = {s.name: s for s in REGISTRY}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise KeyError(
            f"unknown scenario(s) {unknown}; valid names: {sorted(by_name)}"
        )
    wanted = set(names)
    return tuple(s for s in REGISTRY if s.name in wanted)
