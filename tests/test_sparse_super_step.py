"""A super-step costs what its frontier costs — the pieces, one by one.

``tests/test_golden_step_records.py`` pins that the sparse super-step reports
exactly what the dense one did; the tests here pin *why* each shortcut is
sound: an exchange nobody sends into returns what routing would, the counted
pull sets equal the arrays they replaced at every step, the reduce's proposed
ids equal the scan of the merged mask, and a dispatching backend runs small
plans in the coordinator without changing a record.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.comm import Communicator
from repro.cluster.hardware import HardwareSpec
from repro.cluster.netmodel import NetworkModel
from repro.cluster.topology import ClusterTopology
from repro.core.engine import TraversalEngine
from repro.core.frontier import FlagFrontier
from repro.core.kernels import KernelOutput
from repro.core.options import BFSOptions
from repro.core.programs import BFSLevels, BFSParents
from repro.core.programs.base import ProgramInit
from repro.core.state import UNVISITED, TraversalState
from repro.dynamic import DynamicEngine, DynamicGraph, EdgeDelta
from repro.dynamic.incremental import MaintainedLevels
from repro.exec import ProcessBackend
from repro.graph.generators import wdc_like
from repro.graph.rmat import generate_rmat
from repro.obs import Tracer, set_tracer
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions

LAYOUT = ClusterLayout.from_notation("2x1x2")


@pytest.fixture(scope="module")
def rmat10():
    return generate_rmat(10, rng=7)


@pytest.fixture(scope="module")
def wdc10():
    return wdc_like(1 << 10, chain_fraction=0.1, rng=3).prepared()


def _hub(graph) -> int:
    return int(np.argmax(graph.separation.degrees))


# --------------------------------------------------------------------------- #
# (a) an exchange nobody sends into returns what routing would
# --------------------------------------------------------------------------- #
def _communicator() -> Communicator:
    return Communicator(ClusterTopology(LAYOUT), NetworkModel(HardwareSpec()))


class TestEmptyExchange:
    """What the routing phases compute when no GPU sends anything — every GPU
    still runs its (empty) binning kernel, nothing crosses a link, no statistic
    moves, every inbox is empty — is returned without running them.  (That the
    modeled times equal the full path's to the last bit is what the golden
    step records pin: they were written by the full path.)"""

    EMPTY = np.zeros(0, dtype=np.int64)

    @pytest.mark.parametrize("payload", [None, "values", 1, 2])
    @pytest.mark.parametrize(
        "local_all2all, uniquify", [(False, False), (True, False), (True, True)]
    )
    def test_exchange(self, local_all2all, uniquify, payload):
        p = LAYOUT.num_gpus
        comm = _communicator()
        if payload is None:
            payloads = None
        elif payload == "values":
            payloads = [self.EMPTY] * p
        else:
            payloads = [np.zeros((0, payload), dtype=np.uint64)] * p
        result = comm.exchange(
            [self.EMPTY] * p,
            local_all2all=local_all2all,
            uniquify=uniquify,
            payloads=payloads,
        )
        assert comm.stats.as_dict() == _communicator().stats.as_dict()
        assert result.local_time_s == comm.netmodel.filter_time(0) > 0.0
        assert result.remote_time_s == 0.0
        assert (result.remote_bytes, result.local_bytes) == (0, 0)
        assert len(result.inboxes) == p
        assert all(box.dtype == np.int64 and box.shape == (0,) for box in result.inboxes)
        if payload is None:
            assert result.payload_inboxes is None
        else:
            want = (np.int64, (0,)) if payload == "values" else (np.uint64, (0, payload))
            assert len(result.payload_inboxes) == p
            assert all((box.dtype, box.shape) == want for box in result.payload_inboxes)

    def test_idle_senders_beside_a_busy_one(self):
        """An idle sender is charged its (empty) binning kernel and skipped;
        the busy one's traffic is routed as ever."""
        comm = _communicator()
        owners = LAYOUT.flat_gpu_of(np.arange(64))
        sent = np.concatenate([np.flatnonzero(owners == 1)[:3], np.flatnonzero(owners == 2)[:2]])
        result = comm.exchange([self.EMPTY, self.EMPTY, self.EMPTY, sent])
        assert [box.size for box in result.inboxes] == [0, 3, 2, 0]
        np.testing.assert_array_equal(
            result.inboxes[1], LAYOUT.local_index_of(sent[:3]).astype(np.int64)
        )
        assert comm.stats.normal_messages == 2 and comm.stats.normal_vertices_sent == 5
        assert result.local_time_s == comm.netmodel.filter_time(5)

    def test_input_validation_is_kept(self):
        p = LAYOUT.num_gpus
        comm = _communicator()
        with pytest.raises(ValueError, match="expected 4 outboxes"):
            comm.exchange([self.EMPTY] * (p - 1))
        with pytest.raises(ValueError, match="payload arrays"):
            comm.exchange([self.EMPTY] * p, payloads=[self.EMPTY])
        with pytest.raises(ValueError, match="payload of GPU 2"):
            payloads = [self.EMPTY, self.EMPTY, np.ones(3, dtype=np.int64), self.EMPTY]
            comm.exchange([self.EMPTY] * p, payloads=payloads)
        with pytest.raises(ValueError, match="payload of GPU 1"):
            words = np.zeros((0, 1), dtype=np.uint64)
            comm.exchange(
                [self.EMPTY] * p,
                payloads=[words, np.ones((2, 1), dtype=np.uint64), words, words],
            )

    def test_uniquify_requires_local_all2all(self):
        """The communicator refuses U without L, as ``BFSOptions`` does,
        instead of silently sending the duplicates."""
        comm = _communicator()
        outboxes = [np.array([1, 1, 5])] + [self.EMPTY] * (LAYOUT.num_gpus - 1)
        with pytest.raises(ValueError, match="uniquify=True requires local_all2all=True"):
            comm.exchange(outboxes, uniquify=True)
        assert comm.stats.as_dict() == _communicator().stats.as_dict()
        with pytest.raises(ValueError, match="uniquify=True requires local_all2all=True"):
            BFSOptions(uniquify=True)


# --------------------------------------------------------------------------- #
# (b) counted pull sets == the arrays the dense walk built, at every step
# --------------------------------------------------------------------------- #
def _dense_pull_sets(rep: FlagFrontier, g: int) -> dict:
    """The candidate arrays of the dense plan walk, rebuilt from the state."""
    part = rep.graph.gpus[g]
    open_delegates = np.flatnonzero(rep.state.delegate_values == UNVISITED)
    slots = part.nd_source_list
    return {
        "nd": open_delegates[part.dn_source_mask[open_delegates]],
        "dd": open_delegates[part.dd_source_mask[open_delegates]],
        "dn": slots[rep.state.normal_values[g][slots] == UNVISITED],
    }


@pytest.fixture()
def checked_pull_sets(monkeypatch):
    """Check every backward workload and every pull against the dense arrays;
    yields the tally of what was checked."""
    from repro.core.direction import estimate_backward_workload

    tally = {"workloads": 0, "pulls": 0}
    counted_workload = FlagFrontier.backward_workload
    counted_pull = FlagFrontier.pull_payload
    sources_of = {"nd": "dn", "dn": "nd", "dd": "dd"}

    def backward_workload(self, kernel, g, frontier_size, reverse_degrees):
        got = counted_workload(self, kernel, g, frontier_size, reverse_degrees)
        if self.pull_ok:
            dense = _dense_pull_sets(self, g)
            want = estimate_backward_workload(
                dense[kernel].size, q=frontier_size, s=int(dense[sources_of[kernel]].size)
            )
            assert got == want, (kernel, g, self.level)
            tally["workloads"] += 1
        return got

    def pull_payload(self, kernel, g):
        fields = counted_pull(self, kernel, g)
        np.testing.assert_array_equal(fields["candidates"], _dense_pull_sets(self, g)[kernel])
        tally["pulls"] += 1
        return fields

    monkeypatch.setattr(FlagFrontier, "backward_workload", backward_workload)
    monkeypatch.setattr(FlagFrontier, "pull_payload", pull_payload)
    return tally


class TestCountedPullSets:
    @pytest.mark.parametrize("program", [BFSLevels, BFSParents])
    @pytest.mark.parametrize("threshold", [1, 8])
    def test_every_step_of_a_do_run(self, checked_pull_sets, request, program, threshold):
        for name in ("rmat10", "wdc10"):
            graph = build_partitions(request.getfixturevalue(name), LAYOUT, threshold)
            TraversalEngine(graph, backend="inline").run(program(_hub(graph)))
        assert checked_pull_sets["workloads"] > 100 and checked_pull_sets["pulls"] > 0

    def test_maintained_levels_over_an_overlay(self, checked_pull_sets, wdc10):
        dyn = DynamicGraph(
            wdc10, LAYOUT, 1, max_overlay_fraction=1.0, max_degree_crossings=1 << 30
        )
        rng = np.random.default_rng(5)

        def inserts():
            pairs = rng.integers(0, wdc10.num_vertices, size=(16, 2))
            return EdgeDelta.inserts(pairs[pairs[:, 0] != pairs[:, 1]])

        with DynamicEngine(dyn, backend="inline") as engine:
            engine.apply_delta(inserts())
            # The initial full run pulls, and overlay proposals close rows too.
            maintained = MaintainedLevels(engine, _hub(dyn.partitioned))
            maintained.update(engine.apply_delta(inserts()))
            maintained.verify()
        assert dyn.compactions == 0 and not dyn.overlay.empty
        assert maintained.stats.repairs == 1
        assert checked_pull_sets["workloads"] > 100 and checked_pull_sets["pulls"] > 0

    def test_counts_start_from_a_seeded_state(self, checked_pull_sets, rmat10):
        from repro.dynamic.incremental import seeded_init

        graph = build_partitions(rmat10, LAYOUT, 8)
        engine = TraversalEngine(graph, backend="inline")
        source = _hub(graph)
        levels = engine.run(BFSLevels(source)).distances
        values = np.where((levels >= 0) & (levels <= 1), levels, -1)
        before = dict(checked_pull_sets)
        engine.run(BFSLevels(source), init=seeded_init(graph, values, np.flatnonzero(levels == 1)))
        assert checked_pull_sets["workloads"] > before["workloads"]


# --------------------------------------------------------------------------- #
# (c) the reduce's proposed ids == the scan of the merged mask
# --------------------------------------------------------------------------- #
class TestSparseReduce:
    @pytest.mark.parametrize("seed", range(6))
    def test_ids_equal_merged_and_not_visited(self, rmat10, seed, monkeypatch):
        graph = build_partitions(rmat10, LAYOUT, 4)
        d, p = graph.num_delegates, graph.num_gpus
        rng = np.random.default_rng(seed)
        program = BFSLevels(0)
        state = TraversalState.from_init(graph, program.init_state(graph))
        visited = rng.choice(d, size=d // 3, replace=False)
        state.update_delegates(
            np.sort(visited), np.zeros(visited.size, dtype=np.int64), program.accept
        )
        visited_before = state.delegate_visited.copy()
        rep = FlagFrontier(graph, BFSOptions(), program, state)
        rep.level = 3
        rep.begin_fold()
        shared = rng.choice(d, size=5, replace=False)  # found by every GPU
        for g in range(p):
            for kernel in ("nd", "dd"):
                if seed == 0 and g % 2:
                    continue  # a GPU that proposes nothing shares the zero mask
                found = np.concatenate([rng.integers(0, d, size=rng.integers(0, 40)), shared])
                rep.fold(g, kernel, KernelOutput(found, int(found.size), backward=False))
        comm = _communicator()
        merged = []
        allreduce = comm.allreduce

        def spy(updates, **kwargs):
            result = allreduce(updates, **kwargs)
            merged.append(result.merged)
            return result

        monkeypatch.setattr(comm, "allreduce", spy)
        assert rep.reduce_delegates(comm) is not None
        want = merged[0].and_not(visited_before).to_indices()
        np.testing.assert_array_equal(state.delegate_frontier, want)
        assert np.all(state.delegate_values[want] == 3)
        assert comm.stats.delegate_reductions == 1

    def test_no_proposal_means_no_reduction(self, rmat10):
        graph = build_partitions(rmat10, LAYOUT, 4)
        program = BFSLevels(0)
        state = TraversalState.from_init(graph, program.init_state(graph))
        rep = FlagFrontier(graph, BFSOptions(), program, state)
        rep.begin_fold()
        already = np.flatnonzero(state.delegate_values != UNVISITED)
        rep.fold(0, "dd", KernelOutput(already, int(already.size), backward=False))
        comm = _communicator()
        assert rep.reduce_delegates(comm) is None
        assert comm.stats.delegate_reductions == 0 and state.delegate_frontier.size == 0


# --------------------------------------------------------------------------- #
# (d) small plans run in the coordinator, big ones are dispatched
# --------------------------------------------------------------------------- #
class TestSmallPlansRunInTheCoordinator:
    @pytest.mark.parametrize("kind", [ProcessBackend])
    def test_both_kinds_of_step_occur_and_match_inline(self, rmat10, kind):
        graph = build_partitions(rmat10, LAYOUT, 8)
        source = _hub(graph)
        inline = TraversalEngine(graph, backend="inline").run(BFSParents(source))
        with kind(graph, workers=2) as backend:
            remote = TraversalEngine(graph, backend=backend).run(BFSParents(source))
            assert backend.local_steps > 0 and backend.dispatched_steps > 0
            assert backend.local_steps + backend.dispatched_steps == remote.iterations
        np.testing.assert_array_equal(remote.parents, inline.parents)
        assert remote.comm_stats.as_dict() == inline.comm_stats.as_dict()
        for got, want in zip(remote.records, inline.records, strict=True):
            assert got == want

    def test_inline_never_dispatches(self, rmat10):
        graph = build_partitions(rmat10, LAYOUT, 8)
        engine = TraversalEngine(graph, backend="inline")
        result = engine.run(BFSLevels(_hub(graph)))
        assert engine.backend.dispatched_steps == 0
        assert engine.backend.local_steps == result.iterations

    def test_kernels_span_says_where_the_step_ran(self, rmat10):
        graph = build_partitions(rmat10, LAYOUT, 8)
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            with ProcessBackend(graph, workers=2) as backend:
                TraversalEngine(graph, backend=backend).run(BFSLevels(_hub(graph)))
        finally:
            set_tracer(previous)
        spans = [e for e in tracer.events if e["name"] == "kernels" and e.get("cat") == "exec"]
        assert {span["args"]["dispatched"] for span in spans} == {True, False}
        assert all(1 <= span["args"]["gpus"] <= graph.num_gpus for span in spans)
        # Idle kernels run nowhere: a step records one worker span per planned kernel.
        workers = [e for e in tracer.events if e.get("cat") == "worker"]
        assert 0 < len(workers) < 4 * graph.num_gpus * len(spans)


# --------------------------------------------------------------------------- #
# Previsit, accounting
# --------------------------------------------------------------------------- #
class TestPrevisit:
    def test_a_seeded_frontier_is_deduplicated_once_at_install(self, rmat10):
        graph = build_partitions(rmat10, LAYOUT, 8)
        clean = BFSLevels(0).init_state(graph)
        g = next(i for i, gpu in enumerate(graph.gpus) if gpu.num_local > 8)
        messy = ProgramInit(
            normal_values=clean.normal_values,
            delegate_values=clean.delegate_values,
            normal_frontiers=[
                np.array([7, 3, 3, 7, 1]) if i == g else f
                for i, f in enumerate(clean.normal_frontiers)
            ],
            delegate_frontier=np.array([2, 0, 2]),
        )
        state = TraversalState.from_init(graph, messy)
        np.testing.assert_array_equal(state.normal_frontiers[g], [1, 3, 7])
        np.testing.assert_array_equal(state.delegate_frontier, [0, 2])

    def test_push_payload_drops_zero_degree_rows(self, rmat10):
        graph = build_partitions(rmat10, LAYOUT, 8)
        program = BFSLevels(0)
        state = TraversalState.from_init(graph, program.init_state(graph))
        rep = FlagFrontier(graph, BFSOptions(), program, state)
        g = next(i for i, gpu in enumerate(graph.gpus) if gpu.nn.num_edges)
        degrees = graph.gpus[g].nn.out_degrees()
        state.normal_frontiers[g] = np.arange(degrees.size, dtype=np.int64)
        np.testing.assert_array_equal(
            rep.push_payload("nn", g, degrees)["queue"], np.flatnonzero(degrees > 0)
        )
        # A frontier without an edge filters down to nothing; the plan walk
        # sees its zero degree sum and never asks for this queue
        # (tests/test_plan_walk.py).
        state.normal_frontiers[g] = np.flatnonzero(degrees == 0)
        assert state.normal_frontiers[g].size
        assert rep.push_payload("nn", g, degrees)["queue"].size == 0


class TestPerStepAccounting:
    def test_wall_keys_and_rates(self, wdc10):
        graph = build_partitions(wdc10, LAYOUT, 1)
        result = TraversalEngine(graph, backend="inline").run(BFSLevels(_hub(graph)))
        wall = result.wall_s
        assert set(wall) == {
            "kernels", "plan", "fold", "overlay", "exchange", "delegate_reduce", "traversal"
        }
        assert wall["overlay"] == 0.0 and wall["plan"] > 0.0 and wall["fold"] > 0.0
        assert wall["kernels"] > wall["plan"] + wall["fold"]
        assert wall["kernels"] + wall["exchange"] + wall["delegate_reduce"] <= wall["traversal"]
        assert result.us_per_step == pytest.approx(wall["traversal"] / result.iterations * 1e6)
        assert result.ns_per_edge == pytest.approx(
            wall["traversal"] / result.total_edges_examined * 1e9
        )

    def test_a_closed_process_backend_refuses_even_a_small_plan(self, rmat10):
        graph = build_partitions(rmat10, LAYOUT, 8)
        backend = ProcessBackend(graph, workers=2)
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            TraversalEngine(graph, backend=backend).run(BFSLevels(_hub(graph)))
