"""repro — a reproduction of "Scalable Breadth-First Search on a GPU Cluster".

The library implements the complete system described by Pan, Pearce and Owens
(IPDPS workshops / arXiv:1803.03922, 2018) on top of a *simulated* GPU
cluster: degree separation of vertices into delegates and normal vertices, the
modular edge distributor, the four per-GPU CSR subgraphs with 32-bit local
ids, per-subgraph direction-optimized traversal kernels, and the two-part
communication model (global delegate reductions plus point-to-point
normal-vertex exchange) — together with the baselines, analytic cost models
and experiment harnesses needed to regenerate every table and figure of the
paper's evaluation at laptop scale.

Beyond the paper, the traversal core is an algorithm-agnostic
:class:`TraversalEngine` executing pluggable :class:`FrontierProgram` s
(Gunrock-style operator decomposition): BFS hop levels, Graph500 parent
trees, connected components and k-hop reachability all share the
partitioner, the communication channels and the performance model.  The
engine also runs MS-BFS-style *batches* — B sources through one frontier
sweep with per-vertex lane bitsets — and :mod:`repro.serve` builds a
query-serving layer on top (admission coalescing, LRU result cache,
queries/second benchmarks).  :mod:`repro.dynamic` makes graphs *mutable*:
edge-delta batches land in a per-GPU adjacency overlay (compacted back into
clean CSR on demand), maintained answers are repaired incrementally from a
bounded frontier instead of recomputed, and the serve layer invalidates its
cache by graph-version epoch bumps.

Quickstart (fluent API)
-----------------------
>>> import repro
>>> graph = repro.session(layout="2x1x2").generate(scale=12, seed=3).threshold(repro.auto).build()
>>> result = graph.bfs(source=0)
>>> result.distances.shape
(4096,)
>>> graph.components().num_components >= 1
True

Quickstart (explicit API, as the benchmarks use it)
---------------------------------------------------
>>> from repro import ClusterLayout, DistributedBFS, build_partitions, generate_rmat
>>> edges = generate_rmat(12, rng=3)
>>> layout = ClusterLayout(num_ranks=2, gpus_per_rank=2)
>>> pgraph = build_partitions(edges, layout, threshold=64)
>>> result = DistributedBFS(pgraph).run(source=0)
>>> result.distances.shape
(4096,)

See ``examples/`` for end-to-end scripts and ``benchmarks/`` for the
per-figure experiment harnesses.
"""

from repro.cluster import HardwareSpec, NetworkModel
from repro.core import (
    BatchedBFSLevels,
    BatchedReachability,
    BatchResult,
    BFSLevels,
    BFSOptions,
    BFSParents,
    BFSResult,
    Campaign,
    ComponentsResult,
    ConnectedComponents,
    DistributedBFS,
    FrontierProgram,
    KHopReachability,
    ParentTreeResult,
    ReachabilityResult,
    TraversalEngine,
    TraversalResult,
    run_campaign,
)
from repro.exec import ExecutionBackend, InlineBackend
from repro.dynamic import (
    DynamicEngine,
    DynamicGraph,
    EdgeDelta,
    Maintained,
    update_stream,
)
from repro.graph import EdgeList, friendster_like, generate_rmat, wdc_like
from repro.partition import ClusterLayout, build_partitions, suggest_threshold
from repro.serve import MixedWorkload, Query, QueryService, ZipfWorkload
from repro.session import GraphSession, Session, auto, session
from repro.validate import validate_distances
from repro.weighted import (
    BellmanFordSSSP,
    ComponentsHooking,
    DeltaSteppingSSSP,
    HookingResult,
    PageRank,
    PageRankResult,
    SSSPResult,
    TriangleCount,
    TriangleCountResult,
)

__all__ = [
    "__version__",
    # graphs
    "EdgeList",
    "generate_rmat",
    "friendster_like",
    "wdc_like",
    # partitioning
    "ClusterLayout",
    "build_partitions",
    "suggest_threshold",
    # engine + programs
    "TraversalEngine",
    "DistributedBFS",
    "FrontierProgram",
    "BFSLevels",
    "BFSParents",
    "ConnectedComponents",
    "KHopReachability",
    "BatchedBFSLevels",
    "BatchedReachability",
    # weighted zoo
    "BellmanFordSSSP",
    "DeltaSteppingSSSP",
    "PageRank",
    "ComponentsHooking",
    "TriangleCount",
    "SSSPResult",
    "PageRankResult",
    "HookingResult",
    "TriangleCountResult",
    # results
    "TraversalResult",
    "BFSResult",
    "ParentTreeResult",
    "ComponentsResult",
    "ReachabilityResult",
    "BatchResult",
    "Campaign",
    "run_campaign",
    # serving
    "QueryService",
    "Query",
    "ZipfWorkload",
    "MixedWorkload",
    # dynamic graphs
    "DynamicGraph",
    "DynamicEngine",
    "EdgeDelta",
    "update_stream",
    "Maintained",
    # options + hardware
    "BFSOptions",
    "HardwareSpec",
    "NetworkModel",
    # execution backends ("ProcessBackend" imports lazily from repro.exec)
    "ExecutionBackend",
    "InlineBackend",
    # fluent facade
    "session",
    "Session",
    "GraphSession",
    "auto",
    # validation
    "validate_distances",
    # benchmarking
    "run_suite",
    "quick_scenarios",
    "compare_artifacts",
    "load_artifact",
]

#: Names served from :mod:`repro.bench` on first use (PEP 562), so that
#: ``import repro`` loads neither the bench harness nor the serving tier's
#: ``asyncio`` it pulls in.
_BENCH_NAMES = ("run_suite", "quick_scenarios", "compare_artifacts", "load_artifact")


def __getattr__(name: str):
    if name in _BENCH_NAMES:
        import repro.bench

        return getattr(repro.bench, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def _detect_version() -> str:
    """The package version, sourced from the project metadata.

    A source checkout (``PYTHONPATH=src``) reads the sibling
    ``pyproject.toml`` directly — parsed with a regex because Python 3.10
    lacks :mod:`tomllib`, and *before* consulting installed metadata, which
    could belong to an older installed copy of the package rather than the
    code actually running.  Installed packages have no adjacent pyproject
    and fall through to :func:`importlib.metadata.version`.
    """
    try:
        import re
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), flags=re.MULTILINE
        )
        if match:
            return match.group(1)
    except OSError:
        pass  # no adjacent pyproject.toml: running from an installed package
    try:
        from importlib.metadata import version

        return version("repro-dobfs-gpu-cluster")
    except Exception:  # pragma: no cover - neither checkout nor installed
        return "0.0.0+unknown"


__version__ = _detect_version()
