"""Inter-GPU communication for the simulated cluster (paper §V).

The paper's communication model has two channels, split by vertex degree,
and the :class:`Communicator` has one method for each.  Both move real
buffers and account volume, and report what they moved for the step's bill,
which the run's ledger prices: nothing here computes a second.

**Point-to-point, for normal vertices** (:meth:`Communicator.exchange`)
    Newly visited normal destinations of nn edges travel to their owner GPU
    as 32-bit local ids (4 bytes per vertex, the paper's ``4|Enn|`` volume),
    optionally with a payload per vertex: an int64 value (parent ids,
    component labels, PageRank mass) or a row of uint64 lane words (one bit
    per source of a batched traversal).  All outboxes are binned at once
    into a p × p count matrix of ids per (sender, destination) pair; every
    message, byte and statistic is read off that matrix.  Two optional steps
    are modeled as described: *local all2all* (L) first gathers a rank's
    traffic onto the GPU with the destination's within-rank index, so remote
    messages flow only between GPUs of equal index (``p²/pgpu`` pairs
    instead of ``p²``), and *uniquify* (U) then drops duplicate destinations
    on that staging GPU.

**Global reduction, for delegates** (:meth:`Communicator.allreduce`)
    The replicated delegate state is combined in two phases: every GPU of a
    rank pushes its update to GPU0 over NVLink, the GPU0s run a tree-like
    (I)AllReduce over the network, and the result is broadcast back.  On the
    wire an update is the paper's packed 1-bit visited mask, a ``d × B``
    lane mask (one reduction serves a batch of B traversals) or one int64
    value per delegate (programs whose delegates carry a payload, at 64x the
    volume), and that dense size is what is counted and billed.  On the host
    each GPU hands in only what it proposes, keyed by delegate id, and the
    merge costs what was proposed, not ``d``: a near-empty step of a
    long-tail traversal proposes one or two of thousands of delegates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.cluster.netmodel import ExchangeBill
from repro.cluster.topology import ClusterTopology
from repro.utils.sorting import sorted_unique

__all__ = [
    "DENSE_MASK_FILL",
    "DENSE_VALUES_FILL",
    "CommStats",
    "ExchangeResult",
    "ReduceResult",
    "Communicator",
]

#: Bytes of one 32-bit local id on the wire.
_ID_BYTES = 4
_EMPTY_I64 = np.zeros(0, dtype=np.int64)

#: A mask-channel reduce whose proposals hold more than ``d / DENSE_MASK_FILL``
#: ids merges them in a dense flag array (a scatter and one scan of ``d``)
#: instead of sorting them.  ``benchmarks/results/pr41/reduce_cutoff.py``
#: measured, for ``d`` from 1,024 to 65,536 delegates, the sort at 0.3-0.8x
#: the scatter up to ``d / 8`` ids and at 0.8-1.5x from ``d / 4``.
DENSE_MASK_FILL = 8
#: The same for the values and lane channels, whose sorted merge also
#: reduces each id's values: about even with the dense merge at ``d / 32``
#: entries (0.6-1.1x), 0.9-1.8x from ``d / 16``.
DENSE_VALUES_FILL = 32


@dataclass
class CommStats:
    """Cumulative communication accounting for one BFS run."""

    normal_bytes_remote: int = 0
    normal_bytes_local: int = 0
    normal_vertices_sent: int = 0
    normal_vertices_deduplicated: int = 0
    normal_messages: int = 0
    delegate_mask_bytes: int = 0
    delegate_reductions: int = 0
    #: Bytes of per-delegate *value* reductions (programs whose delegate
    #: updates carry a payload — parent ids, component labels — instead of
    #: the 1-bit visited masks plain BFS needs).
    delegate_value_bytes: int = 0
    #: Extra bytes the normal-vertex exchange spent on per-vertex payloads.
    normal_payload_bytes: int = 0

    def as_dict(self) -> dict:
        """Flat dictionary for reporting, in field order."""
        return asdict(self)


@dataclass
class ExchangeResult:
    """Outcome of one normal-vertex exchange super-step."""

    #: Per destination GPU, the received *local slot* ids (int64; repeated
    #: ids stay unless uniquify was on).
    inboxes: list[np.ndarray]
    #: What the exchange moved, for the step's bill.
    bill: ExchangeBill
    #: Per destination GPU, the payload rows parallel to ``inboxes`` (int64
    #: values or ``(len, nwords)`` uint64 lane words); ``None`` when the
    #: exchange carried bare vertex ids, as plain BFS does.
    payload_inboxes: list | None = None


@dataclass
class ReduceResult:
    """Outcome of one delegate all-reduce, shared by every GPU afterwards."""

    #: The delegates the merged update holds, ascending: a set bit, a lane
    #: row with any bit set, or a value other than ``combine``'s identity.
    ids: np.ndarray
    #: Per entry of ``ids``, its merged int64 value or ``(len, nwords)``
    #: uint64 lane words; ``None`` on the mask channel.
    values: np.ndarray | None
    #: ``(bytes of one update, blocking)``, for the step's bill.
    bill: tuple[int, bool]


def _payload_array(payload) -> np.ndarray:
    """A payload as the wire carries it: int64 values, or uint64 lane words
    when it has one row of words per vertex."""
    payload = np.asarray(payload)
    return payload.astype(np.uint64 if payload.ndim == 2 else np.int64, copy=False)


def _first_appearances(keys: np.ndarray) -> np.ndarray:
    """``keys`` without repeats, in the order each first occurs."""
    _, first = np.unique(keys, return_index=True)
    return keys[np.sort(first)]


def _key_dtype(p: int) -> np.dtype:
    """The smallest unsigned dtype holding a binning key in ``[0, p²)``: the
    sorts over it take NumPy's radix path and give the same permutation."""
    return np.min_scalar_type(p * p - 1)


def _check_ids(low, high, size: int) -> None:
    """Reject proposals whose smallest and largest ids are not both in
    ``[0, size)``."""
    if low < 0 or high >= size:
        raise ValueError(f"delegate id out of range [0, {size}): {low} .. {high}")


def _union(ids: np.ndarray, size: int) -> np.ndarray:
    """The mask channel's merge: the distinct proposed ids, ascending."""
    if ids.size == 0:
        return ids
    if ids.size * DENSE_MASK_FILL > size:
        _check_ids(ids.min(), ids.max(), size)
        flags = np.zeros(size, dtype=bool)
        flags[ids] = True
        return np.flatnonzero(flags)
    ids = sorted_unique(ids) if ids.size > 1 else ids
    _check_ids(ids[0], ids[-1], size)
    return ids


def _combine(ids: np.ndarray, values: np.ndarray, size: int, combine, identity):
    """The values and lane channels' merge: per distinct id, ascending, the
    ``combine`` of its proposed values (or lane-word rows); an id whose
    merged value is ``identity`` (a lane row with no bit set) is dropped.
    ``combine`` is an integer ufunc, so the order it meets an id's values in
    changes nothing."""
    if ids.size == 0:
        return ids, values
    if ids.size * DENSE_VALUES_FILL > size:
        _check_ids(ids.min(), ids.max(), size)
        merged = np.full((size, *values.shape[1:]), identity, dtype=values.dtype)
        combine.at(merged, ids, values)
        ids = None
    else:
        order = np.argsort(ids)
        ids = ids[order]
        _check_ids(ids[0], ids[-1], size)
        starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
        ids = ids[starts]
        merged = combine.reduceat(values[order], starts, axis=0)
    keep = merged != identity
    if keep.ndim == 2:
        keep = keep.any(axis=1)
    keep = np.flatnonzero(keep)
    return keep if ids is None else ids[keep], merged[keep]


@dataclass
class Communicator:
    """Moves buffers between virtual GPUs and accounts for their volume."""

    topology: ClusterTopology
    stats: CommStats = field(default_factory=CommStats)

    # ------------------------------------------------------------------ #
    # Global reduction (delegates)
    # ------------------------------------------------------------------ #
    def allreduce(
        self,
        proposals: list,
        size: int,
        blocking: bool = True,
        combine=np.minimum,
        identity=np.iinfo(np.int64).max,
        width: int = 1,
    ) -> ReduceResult:
        """Two-phase reduction of one delegate proposal per GPU.

        Parameters
        ----------
        proposals:
            One entry per GPU, ``None`` where the GPU proposed nothing, all
            of one channel otherwise: an int64 array of delegate ids (the
            mask channel, OR-combined), or an ``(ids, values)`` pair whose
            values are int64 (the values channel, merged by ``combine``) or
            ``(len, nwords)`` uint64 lane words (the lane channel,
            OR-combined).  Ids may repeat, in any order.
        size:
            The number of delegates ``d``.  The wire carries the dense
            update whatever was proposed: ``ceil(d * width / 8)`` bytes of
            mask, counted as ``delegate_mask_bytes``, or ``8 d`` bytes of
            values, counted as ``delegate_value_bytes``.
        blocking:
            ``True`` models ``MPI_Allreduce``; ``False`` models
            ``MPI_Iallreduce`` with the software penalty observed on Ray.
        combine, identity:
            The values channel's binary ufunc and its neutral element.
        width:
            Lanes per delegate of the lane channel (1 for the 1-bit mask).

        The merge is the one the dense update would give: the union of the
        ids, or per id the ``combine`` of its values, dropping an id whose
        merged value is ``identity``.  Up to ``d / DENSE_MASK_FILL`` ids
        (``d / DENSE_VALUES_FILL`` entries on the other two channels) it
        sorts them; beyond, it scatters them into a dense array.  An id
        outside ``[0, d)`` raises :class:`ValueError`.
        """
        layout = self.topology.layout
        if len(proposals) != layout.num_gpus:
            raise ValueError(
                f"expected {layout.num_gpus} proposals (one per GPU), got {len(proposals)}"
            )
        given = [proposal for proposal in proposals if proposal is not None]
        if not given:
            raise ValueError("no GPU proposed a delegate update")
        values = None
        values_channel = False
        if isinstance(given[0], tuple):
            if any(len(ids) != len(rows) for ids, rows in given):
                raise ValueError("a proposal's values must pair up with its ids")
            ids = np.concatenate([ids for ids, _ in given]) if len(given) > 1 else given[0][0]
            rows = np.concatenate([rows for _, rows in given]) if len(given) > 1 else given[0][1]
            values_channel = rows.ndim == 1
            if values_channel:
                ids, values = _combine(ids, rows, size, combine, identity)
            else:
                ids, values = _combine(ids, rows, size, np.bitwise_or, np.uint64(0))
        else:
            ids = _union(np.concatenate(given) if len(given) > 1 else given[0], size)
        nbytes = 8 * size if values_channel else (size * width + 7) // 8

        # Reduction + broadcast trees each move one update per participating
        # rank per phase; the paper counts 2 * d * prank / 8 bytes for masks.
        ranks = layout.num_ranks
        global_bytes = 2 * nbytes * ranks if ranks > 1 else 0
        if values_channel:
            self.stats.delegate_value_bytes += global_bytes
        else:
            self.stats.delegate_mask_bytes += global_bytes
        self.stats.delegate_reductions += 1
        return ReduceResult(ids=ids, values=values, bill=(nbytes, blocking))

    # ------------------------------------------------------------------ #
    # Point-to-point (normal vertices)
    # ------------------------------------------------------------------ #
    def exchange(
        self,
        outboxes: list[np.ndarray],
        local_all2all: bool = False,
        uniquify: bool = False,
        payloads: list[np.ndarray] | None = None,
        payload_combine=np.minimum,
        payload_identity: int | np.int64 | None = None,
    ) -> ExchangeResult:
        """Route newly visited normal-vertex updates to their owner GPUs.

        Parameters
        ----------
        outboxes:
            One array of *global* destination vertex ids per sending GPU (the
            output of that GPU's nn visit kernel, duplicates included).
        local_all2all:
            Enable the intra-rank pre-exchange (paper's "L" option; a no-op
            with one GPU per rank).
        uniquify:
            Drop duplicate destinations on the staging GPU before the remote
            send (paper's "U" option, which runs after the local exchange
            and so requires ``local_all2all``).
        payloads:
            Optional payload per outbox entry (parallel arrays): int64 values,
            or ``(len, nwords)`` uint64 lane words, which travel after the
            4-byte id as ``8 * nwords`` more bytes.  Plain BFS leaves it
            ``None`` and pays only the paper's ``4|Enn|`` volume.
        payload_combine:
            Binary ufunc merging the payloads of duplicate destinations when
            ``uniquify`` is on (e.g. ``np.minimum`` for parent/label programs).
        payload_identity:
            Neutral element of ``payload_combine`` (defaults to the
            ``np.minimum`` identity, ``INT64_MAX``).

        Every sender runs its binning / 32-bit conversion kernel, busy or
        not; the result's ``bill`` records each one's size, the L hops, the
        U filters and the messages sent, which
        :meth:`NetworkModel.price` turns into the phases' modeled times.
        """
        layout = self.topology.layout
        p = layout.num_gpus
        if len(outboxes) != p:
            raise ValueError(f"expected {p} outboxes, got {len(outboxes)}")
        if payloads is not None and len(payloads) != p:
            raise ValueError(f"expected {p} payload arrays, got {len(payloads)}")
        if uniquify and not local_all2all:
            raise ValueError("uniquify=True requires local_all2all=True")
        outboxes = [np.asarray(out, dtype=np.int64).ravel() for out in outboxes]
        sizes = [out.size for out in outboxes]
        if payloads is not None:
            payloads = [_payload_array(payload) for payload in payloads]
            for g, (payload, size) in enumerate(zip(payloads, sizes)):
                if len(payload) != size:
                    raise ValueError(
                        f"payload of GPU {g} has {len(payload)} rows, expected {size}"
                    )
        if not any(sizes):
            # Nothing to route: no byte, no statistic, every inbox empty.
            return ExchangeResult(
                inboxes=[_EMPTY_I64] * p,
                bill=ExchangeBill(sizes),
                payload_inboxes=None if payloads is None else [payloads[0][:0]] * p,
            )

        # Bin: sender, owner and local slot of every id, in emission order,
        # and the p × p count of ids per (sender, owner) pair.
        targets = np.concatenate(outboxes)
        src = np.repeat(np.arange(p), sizes)
        dst = layout.flat_gpu_of(targets)
        slots = layout.local_index_of(targets)
        counts = np.bincount(src * p + dst, minlength=p * p).reshape(p, p)
        payload = None if payloads is None else np.concatenate(payloads)
        payload_row = 0 if payload is None else payload[0].nbytes
        wire = _ID_BYTES + payload_row
        local_bytes = payload_bytes = 0
        hops = held = None

        # L: a rank's ids for destination d are staged on its GPU with d's
        # within-rank index; each (sender, owner) chunk that changes GPU is
        # an NVLink transfer charged to its sender.
        staged = local_all2all and layout.gpus_per_rank > 1
        same_rank = self.topology.same_rank_table
        via = src
        if staged:
            staging = self.topology.staging_table
            # Chunk (s, d) hops from s to staging[s, d], a GPU of s's rank.
            hops = np.where(staging != np.arange(p)[:, None], counts, 0)
            hopped = int(hops.sum())
            local_bytes += hopped * wire
            payload_bytes += hopped * payload_row
            via = staging[src, dst]

        # Inbox order: by owner, then sending (staging) GPU, then emission.
        key = (dst * p + via).astype(_key_dtype(p))
        if uniquify and staged:
            # U: a staging GPU keeps each destination slot once (ascending,
            # payloads merged in emission order) and runs a filter over what
            # it holds for each destination — billed in the order it first
            # received ids for that destination, which the float sum keeps.
            held_ids = np.bincount(key, minlength=p * p)
            pairs = np.flatnonzero(counts)
            first_seen = _first_appearances(
                (pairs % p * p + staging.ravel()[pairs]).astype(_key_dtype(p))
            )
            held = list(zip((first_seen % p).tolist(), held_ids[first_seen].tolist()))
            order = np.lexsort((slots, key))
            key, slots = key[order], slots[order]
            fresh = np.ones(key.size, dtype=bool)
            fresh[1:] = (key[1:] != key[:-1]) | (slots[1:] != slots[:-1])
            if payload is not None:
                merged = np.full(
                    (int(fresh.sum()), *payload.shape[1:]),
                    np.iinfo(np.int64).max if payload_identity is None else payload_identity,
                    dtype=payload.dtype,
                )
                payload_combine.at(merged, np.cumsum(fresh) - 1, payload[order])
                payload = merged
            self.stats.normal_vertices_deduplicated += int(key.size - fresh.sum())
            key, slots = key[fresh], slots[fresh]
        else:
            order = np.argsort(key, kind="stable")
            key, slots = key[order], slots[order]
            if payload is not None:
                payload = payload[order]

        # The remote phase: one message per (sending, owner) pair off the
        # diagonal — a GPU's ids for itself never leave it.
        sent = np.bincount(key, minlength=p * p).reshape(p, p).T.copy()
        np.fill_diagonal(sent, 0)
        local_bytes += int(sent[same_rank].sum()) * wire
        self.stats.normal_messages += int(np.count_nonzero(sent))
        self.stats.normal_vertices_sent += int(sent.sum())
        self.stats.normal_bytes_remote += int(sent[~same_rank].sum()) * wire
        self.stats.normal_bytes_local += local_bytes
        self.stats.normal_payload_bytes += payload_bytes + int(sent.sum()) * payload_row

        bounds = np.cumsum(np.bincount(key // p, minlength=p))[:-1]
        return ExchangeResult(
            inboxes=np.split(slots, bounds),
            bill=ExchangeBill(sizes, wire, hops, held, sent),
            payload_inboxes=None if payload is None else np.split(payload, bounds),
        )
