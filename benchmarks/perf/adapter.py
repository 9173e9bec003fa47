"""The one module of the benchmark that imports from ``repro``.

Everything else under ``benchmarks/perf/`` reaches the program through the
names re-exported here, so this list *is* the public surface a later
simplicity PR must keep (or change here, in one place, in the same PR):

``repro``
    ``__version__``, ``BFSLevels``, ``BFSOptions``, ``TraversalEngine``
``repro.graph``
    ``CSRGraph``, ``EdgeList``, ``generate_rmat``, ``wdc_like``
``repro.graph.rmat``
    ``generate_rmat_edge_chunks`` (the only name taken from outside a
    package ``__all__``: the chunked generator has no package-level export)
``repro.partition``
    ``ClusterLayout``, ``build_partitions``, ``distribute_edges``,
    ``memory_usage``, ``separate_by_degree``, ``suggest_threshold``
``repro.storage``
    ``external_build``, ``load_graph_store``, ``varint_encode``
``repro.exec``
    ``ProcessBackend``, ``numba_available``
``repro.exec.process``
    ``shutdown_pools`` (not in the package ``__all__`` either: a run must stop
    the worker pool itself, before it reports, rather than leave it to ``atexit``)
``repro.serve``
    ``Query``, ``QueryService``
``repro.dynamic``
    ``DynamicEngine``, ``DynamicGraph``, ``EdgeDelta``
``repro.weighted``
    ``DeltaSteppingSSSP``, ``PageRank``
``repro.validate``
    ``validate_distances``
``repro.baselines``
    ``dijkstra_sssp``, ``pagerank_reference_fixed``
``repro.obs``
    ``Tracer``, ``set_tracer``, ``summarize_events``

Besides these names the harness reads public attributes of the objects they
return: ``result.wall_s`` / ``.timing`` / ``.comm_stats`` / ``.records`` /
``.iterations`` / ``.total_edges_examined`` and the answer arrays,
``service.stats`` / ``service.cache.stats``, ``external_build``'s report,
``graph.separation.degrees``, ``graph.total_nbytes()``, ``graph.gpus[i].nn`` / ``.nd``
and ``DynamicGraph.overlay_fraction``.
"""

from repro import BFSLevels, BFSOptions, TraversalEngine, __version__
from repro.baselines import dijkstra_sssp, pagerank_reference_fixed
from repro.dynamic import DynamicEngine, DynamicGraph, EdgeDelta
from repro.exec import ProcessBackend, numba_available
from repro.exec.process import shutdown_pools
from repro.graph import CSRGraph, EdgeList, generate_rmat, wdc_like
from repro.graph.rmat import generate_rmat_edge_chunks
from repro.obs import Tracer, set_tracer, summarize_events
from repro.partition import (
    ClusterLayout,
    build_partitions,
    distribute_edges,
    memory_usage,
    separate_by_degree,
    suggest_threshold,
)
from repro.serve import Query, QueryService
from repro.storage import external_build, load_graph_store, varint_encode
from repro.validate import validate_distances
from repro.weighted import DeltaSteppingSSSP, PageRank

__all__ = [
    "__version__",
    "BFSLevels",
    "BFSOptions",
    "TraversalEngine",
    "CSRGraph",
    "EdgeList",
    "generate_rmat",
    "wdc_like",
    "generate_rmat_edge_chunks",
    "ClusterLayout",
    "build_partitions",
    "distribute_edges",
    "memory_usage",
    "separate_by_degree",
    "suggest_threshold",
    "external_build",
    "load_graph_store",
    "varint_encode",
    "ProcessBackend",
    "numba_available",
    "shutdown_pools",
    "Query",
    "QueryService",
    "DynamicEngine",
    "DynamicGraph",
    "EdgeDelta",
    "DeltaSteppingSSSP",
    "PageRank",
    "validate_distances",
    "dijkstra_sssp",
    "pagerank_reference_fixed",
    "Tracer",
    "set_tracer",
    "summarize_events",
]
