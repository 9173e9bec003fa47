"""The delegate path of a super-step, keyed by delegate id.

Each GPU hands :meth:`Communicator.allreduce` only what it proposes — ids,
``(id, value)`` pairs or ``(row, words)`` lane rows — and the merge must be
exactly the dense update the paper's all-reduce moves: the OR of per-GPU
d-bit (or d x B-bit) masks, or the element-wise ``combine`` of per-GPU value
arrays that hold ``combine``'s identity where nothing was proposed.  The
reference below builds those dense updates; the merge is held to it on both
sides of its dense cutoff (:data:`DENSE_MASK_FILL`, :data:`DENSE_VALUES_FILL`).  The frontiers' dense delegate buffer,
kept for a whole run, is held to a fresh build at every step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.comm import DENSE_MASK_FILL, DENSE_VALUES_FILL, Communicator
from repro.cluster.topology import ClusterTopology
from repro.core.engine import TraversalEngine
from repro.core.frontier import FlagFrontier, LaneFrontier
from repro.core.programs import BFSLevels, BFSParents
from repro.core.programs.batched import BatchedBFSLevels
from repro.dynamic import DynamicEngine, DynamicGraph, EdgeDelta
from repro.dynamic.incremental import Maintained, seeded_init
from repro.graph.generators import wdc_like
from repro.graph.rmat import generate_rmat
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
from repro.weighted import DeltaSteppingSSSP

BIG = np.iinfo(np.int64).max
#: ``(combine, identity, lanes)`` of each channel; ``lanes`` = 0 for no lane words.
CHANNELS = {
    "mask": (None, None, 0),
    "values_min": (np.minimum, BIG, 0),
    "values_add": (np.add, 0, 0),
    "lanes_1": (np.bitwise_or, 0, 37),
    "lanes_2": (np.bitwise_or, 0, 100),
}


def _proposals(channel: str, p: int, d: int, entries: int, rng) -> list:
    """Per GPU: nothing (``None``), an empty proposal, or ``entries``-ish
    proposed entries with repeats — including values equal to the identity,
    additions that cancel to it and all-zero lane rows."""
    combine, identity, lanes = CHANNELS[channel]
    nwords = (lanes + 63) // 64
    out = []
    for g in range(p):
        if g % 4 == 1:
            out.append(None)
            continue
        size = 0 if g % 4 == 3 else int(rng.integers(entries // 2, entries + 1))
        ids = rng.integers(0, d, size=size)
        if channel == "mask":
            out.append(ids)
        elif lanes:
            words = rng.integers(0, 1 << 63, size=(size, nwords), dtype=np.uint64)
            words[-1:, :] = 0  # a row proposing no lane
            if lanes % 64:
                words[:, -1] &= np.uint64((1 << (lanes % 64)) - 1)
            out.append((ids, words))
        else:
            values = rng.integers(-50, 50, size=size) if combine is np.add else rng.integers(
                0, 1 << 40, size=size
            )
            if size >= 2 and combine is np.add:
                ids[1], values[1] = ids[0], -values[0]  # cancels to the identity
            elif size:
                values[0] = identity
            out.append((ids, values.astype(np.int64)))
    return out


def _dense_reference(channel: str, proposals: list, d: int):
    """``(ids, values)`` of the dense update: every GPU's own dense array,
    then the element-wise merge over GPUs, then the non-identity entries."""
    combine, identity, lanes = CHANNELS[channel]
    if channel == "mask":
        merged = np.zeros(d, dtype=bool)
        for ids in proposals:
            if ids is not None:
                own = np.zeros(d, dtype=bool)
                own[ids] = True
                merged |= own
        return np.flatnonzero(merged), None
    shape = (d, (lanes + 63) // 64) if lanes else (d,)
    dtype = np.uint64 if lanes else np.int64
    merged = np.full(shape, identity, dtype=dtype)
    for proposal in proposals:
        if proposal is not None:
            own = np.full(shape, identity, dtype=dtype)
            combine.at(own, *proposal)
            merged = combine(merged, own)
    keep = merged != identity
    ids = np.flatnonzero(keep.any(axis=1) if lanes else keep)
    return ids, merged[ids]


class TestMergeMatchesTheDenseUpdate:
    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    @pytest.mark.parametrize("side", ["sparse", "dense"])
    @pytest.mark.parametrize("layout", ["2x1x2", "2x2x2", "4x1x2"])
    @pytest.mark.parametrize("seed", range(2))
    def test_merge(self, channel, side, layout, seed):
        layout = ClusterLayout.from_notation(layout)
        p = layout.num_gpus
        rng = np.random.default_rng(seed)
        d = int(rng.integers(200, 2000))
        # Entries per proposing GPU, to land on the wanted side of the cutoff.
        fill = DENSE_MASK_FILL if channel == "mask" else DENSE_VALUES_FILL
        entries = max(2, d // (8 * fill)) if side == "sparse" else d // 2
        proposals = _proposals(channel, p, d, entries, rng)
        total = sum(len(x if channel == "mask" else x[0]) for x in proposals if x is not None)
        assert (total * fill > d) == (side == "dense")
        combine, identity, lanes = CHANNELS[channel]
        comm = Communicator(ClusterTopology(layout))
        kwargs = {"width": lanes} if lanes else {}
        if combine is not None and not lanes:
            kwargs.update(combine=combine, identity=identity)
        result = comm.allreduce(proposals, d, blocking=seed == 0, **kwargs)
        want_ids, want_values = _dense_reference(channel, proposals, d)
        np.testing.assert_array_equal(result.ids, want_ids)
        assert result.ids.dtype == np.int64
        if want_values is None:
            assert result.values is None
        else:
            assert result.values.dtype == want_values.dtype
            np.testing.assert_array_equal(result.values, want_values)
        # The bill and the counters are the dense update's.
        values_channel = lanes == 0 and channel != "mask"
        nbytes = 8 * d if values_channel else (d * max(lanes, 1) + 7) // 8
        assert result.bill == (nbytes, seed == 0)
        counted = 2 * nbytes * layout.num_ranks
        stats = comm.stats
        assert stats.delegate_reductions == 1
        assert (stats.delegate_value_bytes, stats.delegate_mask_bytes) == (
            (counted, 0) if values_channel else (0, counted)
        )

    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    def test_only_empty_proposals_merge_to_nothing(self, channel):
        d = 64
        comm = Communicator(ClusterTopology(ClusterLayout.from_notation("2x1x2")))
        empty = np.zeros(0, dtype=np.int64)
        _, _, lanes = CHANNELS[channel]
        proposal = empty if channel == "mask" else (
            (empty, np.zeros((0, (lanes + 63) // 64), dtype=np.uint64)) if lanes else (empty, empty)
        )
        result = comm.allreduce([proposal, None, None, None], d, width=max(lanes, 1))
        assert result.ids.size == 0
        assert comm.stats.delegate_reductions == 1


# --------------------------------------------------------------------------- #
# The dense delegate frontier kept for a run holds no stale id
# --------------------------------------------------------------------------- #
LAYOUT = ClusterLayout.from_notation("2x1x2")


@pytest.fixture()
def checked_dense_frontier(monkeypatch):
    """Hold every step's dense delegate frontier to one built afresh from the
    state; yields how many steps were checked per representation."""
    tally = {"flag": 0, "lane": 0}
    flag_begin, lane_begin = FlagFrontier.begin_step, LaneFrontier.begin_step

    def flag_step(self):
        flag_begin(self)
        want = np.zeros(self.graph.num_delegates, dtype=bool)
        want[self.state.delegate_frontier] = True
        np.testing.assert_array_equal(self.dense_delegate, want)
        tally["flag"] += 1

    def lane_step(self):
        lane_begin(self)
        want = np.zeros_like(self.dense_delegate)
        rows, words = self.state.frontier(None)
        want[rows] = words
        np.testing.assert_array_equal(self.dense_delegate, want)
        tally["lane"] += 1

    monkeypatch.setattr(FlagFrontier, "begin_step", flag_step)
    monkeypatch.setattr(LaneFrontier, "begin_step", lane_step)
    return tally


@pytest.fixture(scope="module")
def rmat10():
    return generate_rmat(10, rng=7)


@pytest.fixture(scope="module")
def wdc10():
    return wdc_like(1 << 10, chain_fraction=0.1, rng=3).prepared()


def _hub(graph) -> int:
    return int(np.argmax(graph.separation.degrees))


class TestPersistentDenseFrontier:
    @pytest.mark.parametrize("program", [BFSLevels, BFSParents])
    def test_plain_runs(self, checked_dense_frontier, rmat10, wdc10, program):
        for edges in (rmat10, wdc10):
            graph = build_partitions(edges, LAYOUT, 4)
            with TraversalEngine(graph, backend="inline") as engine:
                for source in (_hub(graph), int(graph.delegate_vertices[-1]), 0):
                    engine.run(program(source))
        assert checked_dense_frontier["flag"] > 20

    def test_seeded_run(self, checked_dense_frontier, rmat10):
        graph = build_partitions(rmat10, LAYOUT, 8)
        with TraversalEngine(graph, backend="inline") as engine:
            source = _hub(graph)
            levels = engine.run(BFSLevels(source)).distances
            values = np.where((levels >= 0) & (levels <= 1), levels, -1)
            seeded = engine.run(
                BFSLevels(source), init=seeded_init(graph, values, np.flatnonzero(levels == 1))
            )
        np.testing.assert_array_equal(seeded.distances >= 0, levels >= 0)
        assert checked_dense_frontier["flag"] > 4

    def test_overlay_proposals(self, checked_dense_frontier, wdc10):
        dyn = DynamicGraph(
            wdc10, LAYOUT, 1, max_overlay_fraction=1.0, max_degree_crossings=1 << 30
        )
        rng = np.random.default_rng(5)

        def inserts():
            pairs = rng.integers(0, wdc10.num_vertices, size=(24, 2))
            return EdgeDelta.inserts(pairs[pairs[:, 0] != pairs[:, 1]])

        with DynamicEngine(dyn, backend="inline") as engine:
            engine.apply_delta(inserts())
            maintained = Maintained(engine, "levels", _hub(dyn.partitioned))
            maintained.update(engine.apply_delta(inserts()))
            maintained.verify()
            sources = [_hub(dyn.partitioned), int(dyn.partitioned.delegate_vertices[0]), 3]
            batched = engine.run_batch(BatchedBFSLevels(sources))
            for lane, source in enumerate(sources):
                np.testing.assert_array_equal(
                    batched.per_source_results()[lane].distances,
                    engine.run(BFSLevels(source)).distances,
                )
        assert not dyn.overlay.empty
        assert checked_dense_frontier["flag"] > 20 and checked_dense_frontier["lane"] > 5

    def test_driver_installed_frontiers(self, checked_dense_frontier):
        edges = generate_rmat(10, rng=1, weights_seed=5)
        graph = build_partitions(edges, LAYOUT, 8)
        with TraversalEngine(graph, backend="inline") as engine:
            engine.run(DeltaSteppingSSSP(_hub(graph), delta=0.125))
        assert checked_dense_frontier["flag"] > 4
