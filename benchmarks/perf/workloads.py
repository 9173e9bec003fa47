"""The seven benchmark workloads: inputs, set-up, operations and oracles.

A workload is one set of inputs the harness (``run.py``) drives.  Each class
says how to build its graph (``setup``, timed as a whole and span by span),
which operations one *pass* consists of (``operations``, drawn from
``--seed``), how one operation is executed against the program (``run_op`` —
the only timed call) and how its answer is digested and checked (``digest``,
``check`` — never timed).  Everything the program sees is generated here; it
receives inputs, never the seed.

The graph of a workload is a fixed dataset (``GRAPH_SEED``), as the paper's
are; ``--seed`` draws what is asked of it: roots, hot vertices, inserted
edges.  Sizes are fixed per workload name so numbers from different commits
compare; ``smoke=True`` shrinks every workload to scale 10 for the tier-1
smoke test.
"""

from __future__ import annotations

import shutil
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import adapter as A
from perfstats import percentile, rate

#: Public ``result.wall_s`` phases summed per traversal (``engine.*_s`` rows).
WALL_KEYS = ("kernels", "exchange", "delegate_reduce", "traversal")
#: Public ``result.timing`` fields summed per traversal (``model.*_ms`` rows).
MODEL_KEYS = {
    "computation": "computation_ms",
    "local_communication": "local_comm_ms",
    "remote_normal_exchange": "remote_normal_ms",
    "remote_delegate_reduce": "remote_delegate_ms",
    "elapsed_ms": "modeled_ms",
}
#: Public ``result.comm_stats`` fields summed per traversal (``comm.*`` rows).
COMM_KEYS = (
    "normal_bytes_remote",
    "normal_messages",
    "delegate_mask_bytes",
    "delegate_value_bytes",
    "delegate_reductions",
)


#: Seed of what every ``--seed`` shares: the graphs, their edge weights, the
#: Zipf rank stream and the positions of the updates in the mixed stream.
GRAPH_SEED = 20180521
STREAM_SEED = GRAPH_SEED + 1


def traversal_counters(result) -> dict:
    """The per-layer numbers one traversal result carries in public fields."""
    counters = {f"wall.{key}": float(result.wall_s.get(key, 0.0)) for key in WALL_KEYS}
    for attr, name in MODEL_KEYS.items():
        counters[f"model.{name}"] = float(getattr(result.timing, attr))
    for key in COMM_KEYS:
        counters[f"comm.{key}"] = int(getattr(result.comm_stats, key))
    counters["steps"] = len(result.records)
    counters["edges"] = int(result.total_edges_examined)
    for kernel, edges in result.workload_by_kernel().items():
        counters[f"edges.{kernel}"] = int(edges)
    return counters


def checksum(values: np.ndarray, seed: int = 0) -> int:
    """CRC-32 of an answer array, chained through ``seed``."""
    return zlib.crc32(np.ascontiguousarray(values), seed)


def kept_answers(digests: list) -> list:
    """The ``(source, answer)`` pairs a pass kept; a raised operation has no digest."""
    return [pair for digest in digests if digest is not None for pair in digest.kept]


@dataclass
class Digest:
    """What the harness keeps of one executed operation (built untimed)."""

    #: CRC of the answer(s); equal across passes and the traced pass.
    checksum: int
    #: Undirected input edges behind the answer(s): the TEPS numerator.
    edges: int = 0
    #: ``traversal_counters`` of every traversal this operation executed.
    traversals: list = field(default_factory=list)
    #: Answers kept for the oracles (first pass only): ``(source, array)``.
    kept: list = field(default_factory=list)
    #: Free-form per-operation layer numbers (``dynamic.*``, ``weighted.*``).
    extra: dict = field(default_factory=dict)


class Workload:
    """Base class: an in-memory RMAT/WDC graph traversed root by root."""

    name = ""
    layout = "2x1x2"
    #: Set-ups per run: the first is reported as cold, ``setup_s`` is the
    #: median of the rest.  Cheap set-ups are repeated more often.
    setups = 7
    #: Every ``validate_every``-th BFS root is checked against the oracle.
    validate_every = 4
    #: Roots are drawn among vertices of at least this degree.
    root_min_degree = 1
    #: Seconds one pass takes on the reference host (README, "Recorded
    #: numbers"): ``--seconds`` buys ``seconds / pass_s`` passes, a count that
    #: does not depend on how fast the program under test is.
    pass_s = 1.0

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = int(seed)
        self.smoke = bool(smoke)
        self.workdir = workdir
        self.rng = np.random.default_rng([self.seed, zlib.crc32(self.name.encode())])
        self.edges = None
        self.graph = None
        self.engine = None
        self.threshold = 0

    # -- inputs --------------------------------------------------------- #
    def raw_edges(self):
        """The raw (unprepared) generated edge list of this workload."""
        raise NotImplementedError

    def num_roots(self) -> int:
        raise NotImplementedError

    # -- set-up ----------------------------------------------------------- #
    def setup(self, spans) -> None:
        """generate -> prepare -> threshold -> partition -> engine."""
        self.teardown()
        self.build_graph(spans)
        self.engine = self.make_engine()

    def make_engine(self, backend="inline"):
        """Every execution axis explicit: DO+BR options, NumPy kernels."""
        return A.TraversalEngine(
            self.graph, options=A.BFSOptions(), backend=backend, kernels="numpy"
        )

    def build_graph(self, spans) -> None:
        with spans.span("graph.generate"):
            raw = self.raw_edges()
        self.raw_edge_count = raw.num_edges
        with spans.span("graph.prepare"):
            self.edges = raw.prepared()
        del raw
        layout = A.ClusterLayout.from_notation(self.layout)
        with spans.span("partition.threshold"):
            self.threshold = A.suggest_threshold(self.edges, layout.num_gpus)
        with spans.span("partition.build"):
            self.graph = A.build_partitions(self.edges, layout, self.threshold)

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
        self.engine = self.graph = self.edges = None

    # -- operations --------------------------------------------------------- #
    @property
    def degrees(self) -> np.ndarray:
        return np.asarray(self.graph.separation.degrees)

    def pick_roots(self, count: int) -> list[int]:
        """``count`` distinct roots, one drawn from each of ``count`` degree strata.

        A root's cost depends on its degree (when direction optimisation
        switches), so uniform draws make a pass's work depend on the seed's
        luck; stratifying gives every seed the same degree mix.
        """
        candidates = np.flatnonzero(self.degrees >= self.root_min_degree)
        candidates = candidates[np.argsort(self.degrees[candidates], kind="stable")]
        positions = (np.arange(count) + self.rng.random(count)) / count * candidates.size
        return [int(candidates[int(position)]) for position in positions]

    def operations(self) -> list:
        return [("bfs", root) for root in self.pick_roots(self.num_roots())]

    def begin_pass(self):
        return None

    def run_op(self, ctx, op):
        return self.engine.run(A.BFSLevels(source=op[1]))

    def component_edges(self, reached: np.ndarray) -> int:
        """Undirected input edges of the component an answer covers."""
        return int(self.degrees[reached].sum()) // 2

    def digest(self, ctx, index: int, op, result, keep: bool) -> Digest:
        digest = Digest(
            checksum=checksum(result.distances),
            edges=self.component_edges(result.distances >= 0),
            traversals=[traversal_counters(result)],
        )
        if keep and index % self.validate_every == 0:
            digest.kept.append((op[1], result.distances.copy()))
        return digest

    def end_pass(self, ctx) -> dict:
        return {}

    def layer_metrics(self, layer: dict, ops, op_walls, digests, probed: dict) -> None:
        """Fill the rows only this workload's layers produce.

        Here the Graph500 rates of a BFS workload: the harmonic mean over the
        roots of (undirected input edges of the root's component / time).
        """
        done = [(wall, d) for wall, d in zip(op_walls, digests) if d is not None]
        host = sum(wall / d.edges for wall, d in done)
        modeled = sum(d.traversals[0]["model.modeled_ms"] / 1e3 / d.edges for _, d in done)
        layer["host_mteps"] = rate(len(done), host) / 1e6
        layer["modeled_gteps"] = rate(len(done), modeled) / 1e9

    # -- oracles ------------------------------------------------------------ #
    def oracle_edges(self):
        """The edge list the BFS oracle validates against."""
        return self.edges

    def check(self, ops: list, digests: list) -> tuple[int, int]:
        """(answers checked, answers wrong) for the first pass's kept answers."""
        edges = self.oracle_edges()
        checked = failed = 0
        for source, distances in kept_answers(digests):
            checked += 1
            failed += not A.validate_distances(edges, source, distances).valid
        return checked, failed

    # -- trace-mode probes --------------------------------------------------- #
    def probes(self, probe, ops: list) -> dict:
        """Layer micro-measurements: public functions run once, standalone."""
        edges, layout = self.edges, self.graph.layout
        separation = probe("partition.separate", A.separate_by_degree, edges, self.threshold)
        probe("partition.distribute", A.distribute_edges, edges, separation, layout)
        probe("graph.csr", A.CSRGraph.from_edgelist, edges)
        return {}

    def static_metrics(self) -> dict:
        """Counts read off the built graph (no timing)."""
        measured = A.memory_usage(self.graph)[1]
        per_gpu = self.graph.edges_per_gpu()
        return {
            "partition.edge_imbalance": float(per_gpu.max() / per_gpu.mean()),
            "graph.directed_edges": self.graph.num_directed_edges,
            "partition.threshold": self.threshold,
            "partition.delegates": self.graph.num_delegates,
            "partition.graph_bytes": self.graph.total_nbytes(),
            "partition.bytes_vs_edgelist": measured.vs_edge_list,
        }


class Rmat16G500(Workload):
    name = "rmat16-g500"
    layout = "2x2x2"
    setups = 4
    pass_s = 1.4

    def raw_edges(self):
        return A.generate_rmat(
            10 if self.smoke else 16,
            rng=GRAPH_SEED,
            hash_seed=None,
            symmetrize=False,
            deduplicate=False,
        )

    def num_roots(self) -> int:
        return 2 if self.smoke else 32


class Wdc14Longtail(Workload):
    name = "wdc14-longtail"
    setups = 9
    pass_s = 1.7
    vertices = 1 << 14
    #: 10 % of the active vertices form the chain (the generator's default of
    #: 35 % gives 5,164 steps and 4 s per root — one root per run).
    chain_fraction = 0.1
    #: Chain vertices have degree <= 2; a core root walks the whole tail.
    root_min_degree = 3

    def raw_edges(self):
        return A.wdc_like(
            1 << 10 if self.smoke else self.vertices,
            chain_fraction=self.chain_fraction,
            rng=GRAPH_SEED,
        )

    def num_roots(self) -> int:
        return 3


class Wdc12LongtailProcess(Wdc14Longtail):
    name = "wdc12-longtail-process"
    vertices = 1 << 12
    pass_s = 1.0

    def num_roots(self) -> int:
        return 1

    def __init__(self, seed, smoke, workdir) -> None:
        super().__init__(seed, smoke, workdir)
        self.backend = None

    def setup(self, spans) -> None:
        self.teardown()
        self.build_graph(spans)
        with spans.span("exec.spawn"):
            self.backend = A.ProcessBackend(self.graph, workers=2)
        self.engine = self.make_engine(self.backend)

    def teardown(self) -> None:
        super().teardown()
        if self.backend is not None:
            self.backend.close()
            self.backend = None

    def probes(self, probe, ops: list) -> dict:
        """Same roots, inline: the denominator of ``exec.process_over_inline``."""
        super().probes(probe, ops)
        inline = self.make_engine()
        inline.run(A.BFSLevels(source=ops[0][1]))  # warm-up
        started = time.perf_counter()
        for _, root in ops:
            inline.run(A.BFSLevels(source=root))
        return {"inline_wall_s": time.perf_counter() - started}

    def layer_metrics(self, layer, ops, op_walls, digests, probed) -> None:
        super().layer_metrics(layer, ops, op_walls, digests, probed)
        layer["exec.workers"] = self.backend.workers
        layer["exec.us_per_step"] = layer["engine.us_per_step"]
        layer["exec.process_over_inline"] = rate(sum(op_walls), probed.get("inline_wall_s", 0.0))


class Stream16BuildCompressed(Workload):
    name = "stream16-build-compressed"
    setups = 4
    pass_s = 1.35
    block_edges = 1 << 18

    def __init__(self, seed, smoke, workdir) -> None:
        super().__init__(seed, smoke, workdir)
        self.scale = 10 if smoke else 16
        self.store = None
        self.report = None
        self.builds = 0

    def chunks(self):
        return A.generate_rmat_edge_chunks(
            self.scale, seed=GRAPH_SEED, chunk_edges=self.block_edges
        )

    def setup(self, spans) -> None:
        """chunked generate -> external_build(compressed) -> attach -> engine."""
        self.teardown()
        self.builds += 1
        store = self.workdir / f"store-{self.builds}"
        generate_s = 0.0

        def timed_chunks():
            # The generator runs lazily inside external_build; its share is
            # the time spent producing chunks, measured around each next().
            nonlocal generate_s
            chunks = self.chunks()
            while True:
                started = time.perf_counter()
                chunk = next(chunks, None)
                generate_s += time.perf_counter() - started
                if chunk is None:
                    return
                yield chunk

        with spans.span("storage.build"):
            self.store, self.report = A.external_build(
                timed_chunks(),
                1 << self.scale,
                A.ClusterLayout.from_notation(self.layout),
                store,
                storage="compressed",
                block_edges=self.block_edges,
            )
            spans.add("graph.generate", generate_s)
            for phase, seconds in self.report["walls"].items():
                spans.add(f"storage.{phase}", seconds)
        self.raw_edge_count = 16 << self.scale
        with spans.span("storage.attach"):
            self.graph = A.load_graph_store(self.store)
        self.threshold = int(self.report["threshold"])
        self.engine = self.make_engine()

    def teardown(self) -> None:
        super().teardown()
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
            self.store = None

    def num_roots(self) -> int:
        return 2 if self.smoke else 32

    def oracle_edges(self):
        """The in-memory preparation of the same chunks (independent of the store)."""
        chunks = list(self.chunks())
        raw = A.EdgeList(
            np.concatenate([c[0] for c in chunks]),
            np.concatenate([c[1] for c in chunks]),
            1 << self.scale,
        )
        return raw.prepared()

    def probes(self, probe, ops: list) -> dict:
        """varint encode / lazy decode rates on the largest compressed subgraph."""
        compressed = max(
            (getattr(gpu, kind) for gpu in self.graph.gpus for kind in ("nn", "nd")),
            key=lambda csr: csr.num_edges,
        )
        rows = np.arange(compressed.num_rows, dtype=np.int64)
        decoded = probe("storage.decode", compressed.decode_rows, rows)
        columns = np.asarray(decoded.column_indices, dtype=np.int64)
        payload, _ = probe("storage.encode", A.varint_encode, columns)
        return {"decode_bytes": int(columns.nbytes), "encode_bytes": int(payload.nbytes)}

    def layer_metrics(self, layer, ops, op_walls, digests, probed) -> None:
        super().layer_metrics(layer, ops, op_walls, digests, probed)
        layer["build_edges_per_s"] = rate(layer["graph.directed_edges"], layer["storage.build_s"])
        layer["storage.traverse_ns_per_edge"] = layer["engine.ns_per_edge"]
        for codec in ("encode", "decode"):
            layer[f"storage.{codec}_mb_per_s"] = rate(
                probed.get(f"{codec}_bytes", 0) / 1e6, layer.get(f"storage.{codec}_s", 0.0)
            )

    def static_metrics(self) -> dict:
        store_bytes = sum(f.stat().st_size for f in Path(self.store).rglob("*") if f.is_file())
        return {
            **super().static_metrics(),
            "storage.store_bytes": store_bytes,
            "storage.bytes_per_edge": store_bytes / self.graph.num_directed_edges,
        }


class Serve14ZipfReads(Workload):
    name = "serve14-zipf-reads"
    wave = 32
    pass_s = 1.05

    def raw_edges(self):
        return A.generate_rmat(
            10 if self.smoke else 14,
            rng=GRAPH_SEED,
            hash_seed=None,
            symmetrize=False,
            deduplicate=False,
        )

    def sizes(self) -> tuple[int, int, int]:
        """(queries per pass, Zipf pool, cache entries): the pool is 8x the cache."""
        return (64, 32, 4) if self.smoke else (1024, 512, 64)

    def queries(self) -> list:
        """Zipf(1.0) reads: the seed picks the hot vertices, not the rank stream.

        The rank stream and the degree stratum each popularity rank falls in
        come from a constant, so every seed replays the same hit / miss /
        coalescing structure and the same degree mix per wave over its own
        hot set: the work of a pass does not depend on the seed's luck.
        """
        count, pool, _ = self.sizes()
        stream = np.random.default_rng(STREAM_SEED)
        hot = np.asarray(self.pick_roots(pool))[stream.permutation(pool)]
        weights = 1.0 / np.arange(1, pool + 1)
        ranks = stream.choice(pool, size=count, p=weights / weights.sum())
        return [A.Query(program="levels", source=int(hot[rank])) for rank in ranks]

    def operations(self) -> list:
        queries = self.queries()
        return [
            ("wave", queries[start:start + self.wave])
            for start in range(0, len(queries), self.wave)
        ]

    def begin_pass(self):
        service = A.QueryService(self.engine, batch_size=self.wave, cache_size=self.sizes()[2])
        return {"service": service, "timings": {}, "edges": {}}

    def run_op(self, ctx, op):
        service = ctx["service"]
        for query in op[1]:
            service.submit(query)
        return service.flush()

    def digest(self, ctx, index: int, op, result, keep: bool) -> Digest:
        digest = Digest(checksum=0)
        for query, answer in zip(op[1], result):
            digest.checksum = checksum(answer.distances, digest.checksum)
            # Lanes of one batch share its timing object, and cached answers
            # keep theirs: a timing seen for the first time is a traversal
            # this wave executed.  Holding the (small) timing objects keeps
            # their ids from being reused within the pass.
            if id(answer.timing) not in ctx["timings"]:
                ctx["timings"][id(answer.timing)] = answer.timing
                digest.traversals.append(traversal_counters(answer))
            edges = ctx["edges"].get(query.source)
            if edges is None:
                edges = ctx["edges"][query.source] = self.component_edges(answer.distances >= 0)
            digest.edges += edges
        if keep and self.keep_from(index):
            digest.kept.extend(self.kept_answers(op, result))
        return digest

    def keep_from(self, index: int) -> bool:
        return index % 2 == 0

    def kept_answers(self, op, result) -> list:
        return [(op[1][0].source, result[0].distances.copy())]

    def end_pass(self, ctx) -> dict:
        stats, cache = ctx["service"].stats, ctx["service"].cache.stats
        return {
            "serve.flushes": stats.flushes,
            "serve.flush_s": stats.wall_s,
            "serve.cache_hit_ratio": cache.hit_rate,
            "serve.coalesced_ratio": stats.coalesced / max(stats.queries, 1),
            "serve.traversals_per_query": stats.traversals / max(stats.queries, 1),
            "serve.sources_per_batch": stats.batched_sources / max(stats.batches, 1),
            "serve.update_s": stats.update_wall_s,
            "serve.epoch_bumps": stats.epoch_bumps,
            "serve.entries_invalidated": stats.entries_invalidated,
        }

    def layer_metrics(self, layer, ops, op_walls, digests, probed) -> None:
        """Latency of the blocking call a client waits on: one wave's ``flush``."""
        waves = [wall for op, wall in zip(ops, op_walls) if op[0] == "wave"]
        answered = sum(len(op[1]) for op in ops if op[0] == "wave")
        layer["serve_qps"] = answered / sum(op_walls)
        layer["wave_p50_ms"] = percentile(waves, 0.5) * 1e3
        layer["serve.wave_p95_ms"] = percentile(waves, 0.95) * 1e3
        layer["serve.wave_max_ms"] = max(waves) * 1e3

    def check(self, ops: list, digests: list) -> tuple[int, int]:
        """Sampled served answers equal a direct, uncached ``engine.run``."""
        checked = failed = 0
        for source, distances in kept_answers(digests):
            direct = self.engine.run(A.BFSLevels(source=source)).distances
            checked += 1
            failed += not np.array_equal(direct, distances)
        return checked, failed


class Serve14MixedUpdates(Serve14ZipfReads):
    name = "serve14-mixed-updates"
    pass_s = 1.3
    update_rate = 0.05
    edges_per_update = 256

    def sizes(self) -> tuple[int, int, int]:
        return (64, 32, 4) if self.smoke else (384, 512, 64)

    def setup(self, spans) -> None:
        self.teardown()
        self.build_graph(spans)
        with spans.span("dynamic.setup"):
            self.engine = self.dynamic_engine()

    def dynamic_engine(self):
        """A fresh mutable graph adopting the (never mutated) base partitions."""
        dynamic = A.DynamicGraph(
            self.edges, self.graph.layout, self.threshold, partitioned=self.graph
        )
        return A.DynamicEngine(
            dynamic, options=A.BFSOptions(), backend="inline", kernels="numpy"
        )

    def operations(self) -> list:
        """Zipf reads in waves of 32, cut by uniform-insert update batches."""
        queries = iter(self.queries())
        count = self.sizes()[0]
        # Where the updates fall is constant too (see ``queries``).
        is_update = np.random.default_rng(STREAM_SEED + 1).random(count) < self.update_rate
        n = self.graph.num_vertices
        ops: list = []
        wave: list = []
        for flag in is_update:
            if flag:
                if wave:
                    ops.append(("wave", wave))
                    wave = []
                src = self.rng.integers(0, n, size=self.edges_per_update)
                dst = self.rng.integers(0, n, size=self.edges_per_update)
                dst[src == dst] = (dst[src == dst] + 1) % n
                ops.append(("update", A.EdgeDelta(insert_src=src, insert_dst=dst)))
                continue
            wave.append(next(queries))
            if len(wave) == self.wave:
                ops.append(("wave", wave))
                wave = []
        if wave:
            ops.append(("wave", wave))
        self.last_wave = max(i for i, op in enumerate(ops) if op[0] == "wave")
        return ops

    def begin_pass(self):
        # Updates mutate the graph: every pass starts from the base graph.
        self.engine.close()
        self.engine = self.dynamic_engine()
        return super().begin_pass()

    def run_op(self, ctx, op):
        if op[0] == "update":
            return ctx["service"].apply_delta(op[1], flush_pending=False)
        return super().run_op(ctx, op)

    def digest(self, ctx, index: int, op, result, keep: bool) -> Digest:
        if op[0] == "wave":
            return super().digest(ctx, index, op, result, keep)
        return Digest(
            checksum=result.num_inserts,
            extra={"dynamic.inserted_edges": result.num_inserts // 2},
        )

    def keep_from(self, index: int) -> bool:
        return index == self.last_wave

    def kept_answers(self, op, result) -> list:
        return [(q.source, a.distances.copy()) for q, a in list(zip(op[1], result))[:4]]

    def end_pass(self, ctx) -> dict:
        out = super().end_pass(ctx)
        out["dynamic.overlay_fraction"] = self.engine.dynamic.overlay_fraction
        return out

    def layer_metrics(self, layer, ops, op_walls, digests, probed) -> None:
        super().layer_metrics(layer, ops, op_walls, digests, probed)
        applies = [wall for op, wall in zip(ops, op_walls) if op[0] == "update"]
        layer["dynamic.apply_s"] = sum(applies)
        layer["dynamic.apply_p50_ms"] = percentile(applies, 0.5) * 1e3
        layer["dynamic.apply_p95_ms"] = percentile(applies, 0.95) * 1e3
        layer["update_edges_per_s"] = rate(layer["dynamic.inserted_edges"], sum(applies))

    def check(self, ops: list, digests: list) -> tuple[int, int]:
        """Post-update answers validate against base edges + applied inserts."""
        inserts = [op[1] for op in ops[: self.last_wave] if op[0] == "update"]
        union = A.EdgeList(
            np.concatenate([self.edges.src] + [d.insert_src for d in inserts]),
            np.concatenate([self.edges.dst] + [d.insert_dst for d in inserts]),
            self.edges.num_vertices,
        ).prepared(hash_seed=None)
        checked = failed = 0
        for source, distances in kept_answers(digests[self.last_wave:self.last_wave + 1]):
            checked += 1
            failed += not A.validate_distances(union, source, distances).valid
        return checked, failed


class Weighted15SsspPr(Workload):
    name = "weighted15-sssp-pr"
    pass_s = 1.3
    delta = 0.125
    iterations = 20
    #: SSSP roots checked bit-for-bit against serial Dijkstra (1.8 s each).
    dijkstra_roots = 1

    def raw_edges(self):
        return A.generate_rmat(
            10 if self.smoke else 15,
            rng=GRAPH_SEED,
            hash_seed=None,
            symmetrize=False,
            deduplicate=False,
            weights_seed=GRAPH_SEED + 7,
        )

    def num_roots(self) -> int:
        return 2 if self.smoke else 8

    def operations(self) -> list:
        roots = self.pick_roots(self.num_roots())
        return [("sssp", root) for root in roots] + [("pagerank", None)]

    def run_op(self, ctx, op):
        if op[0] == "pagerank":
            return self.engine.run(A.PageRank(iterations=self.iterations))
        return self.engine.run(A.DeltaSteppingSSSP(op[1], delta=self.delta))

    def digest(self, ctx, index: int, op, result, keep: bool) -> Digest:
        counters = traversal_counters(result)
        wall = counters["wall.traversal"]
        if op[0] == "pagerank":
            digest = Digest(
                checksum=checksum(result.ranks),
                edges=self.graph.num_directed_edges // 2 * self.iterations,
                traversals=[counters],
                extra={"weighted.pagerank_s": wall},
            )
            if keep:
                digest.kept.append((None, result.ranks.copy()))
            return digest
        digest = Digest(
            checksum=checksum(result.dist_bits),
            edges=self.component_edges(result.dist_bits != -1),
            traversals=[counters],
            extra={
                "weighted.sssp_s": wall,
                "weighted.sssp_steps": counters["steps"],
                "weighted.sssp_relaxations": counters["edges"],
            },
        )
        if keep and index < self.dijkstra_roots:
            digest.kept.append((op[1], result.dist_bits.copy()))
        return digest

    def layer_metrics(self, layer, ops, op_walls, digests, probed) -> None:
        layer["weighted.sssp_ns_per_relaxation"] = (
            layer["weighted.sssp_s"] / layer["weighted.sssp_relaxations"] * 1e9
        )
        layer["weighted.pagerank_edges_per_s"] = rate(
            layer["graph.directed_edges"] * self.iterations, layer["weighted.pagerank_s"]
        )

    def check(self, ops: list, digests: list) -> tuple[int, int]:
        """Dijkstra (bit-equal distances) and the serial fixed-point PageRank."""
        e = self.edges
        checked = failed = 0
        for source, answer in kept_answers(digests):
            checked += 1
            if source is None:
                reference = A.pagerank_reference_fixed(
                    e.src, e.dst, e.num_vertices, iterations=self.iterations
                )
                failed += not np.array_equal(reference, answer)
                continue
            reference = A.dijkstra_sssp(e.src, e.dst, e.weights, e.num_vertices, source)
            bits = np.where(np.isinf(reference), -1, reference.view(np.int64))
            failed += not np.array_equal(bits, answer)
        return checked, failed


WORKLOADS = {
    cls.name: cls
    for cls in (
        Rmat16G500,
        Wdc14Longtail,
        Wdc12LongtailProcess,
        Stream16BuildCompressed,
        Serve14ZipfReads,
        Serve14MixedUpdates,
        Weighted15SsspPr,
    )
}
