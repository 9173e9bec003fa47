"""Inter-GPU communication for the simulated cluster (paper §V).

The paper's communication model has two channels, split by vertex degree,
and the :class:`Communicator` has one method for each.  Both move real
buffers and account modeled time and volume.

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
    (I)AllReduce over the network, and the result is broadcast back.  An
    update is the paper's packed 1-bit visited mask, a ``d × B`` lane mask
    (one reduction serves a batch of B traversals) or one int64 value per
    delegate (programs whose delegates carry a payload, at 64x the volume).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.netmodel import NetworkModel
from repro.cluster.topology import ClusterTopology
from repro.utils.bitmask import BatchBitmask, Bitmask

__all__ = ["CommStats", "ExchangeResult", "ReduceResult", "Communicator"]

#: Bytes of one 32-bit local id on the wire.
_ID_BYTES = 4
_EMPTY_I64 = np.zeros(0, dtype=np.int64)


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
        """Flat dictionary for reporting."""
        return {
            "normal_bytes_remote": self.normal_bytes_remote,
            "normal_bytes_local": self.normal_bytes_local,
            "normal_vertices_sent": self.normal_vertices_sent,
            "normal_vertices_deduplicated": self.normal_vertices_deduplicated,
            "normal_messages": self.normal_messages,
            "delegate_mask_bytes": self.delegate_mask_bytes,
            "delegate_reductions": self.delegate_reductions,
            "delegate_value_bytes": self.delegate_value_bytes,
            "normal_payload_bytes": self.normal_payload_bytes,
        }


@dataclass
class ExchangeResult:
    """Outcome of one normal-vertex exchange super-step."""

    #: Per destination GPU, the received *local slot* ids (int64; repeated
    #: ids stay unless uniquify was on).
    inboxes: list[np.ndarray]
    #: Modeled time of the on-GPU binning/conversion, the intra-rank local
    #: all2all and the uniquify filter (max over GPUs), in seconds.
    local_time_s: float
    #: Modeled time of the point-to-point network phase (max over sending
    #: GPUs), in seconds.
    remote_time_s: float
    #: Bytes sent over inter-rank links.
    remote_bytes: int
    #: Bytes moved over intra-rank (NVLink) links.
    local_bytes: int
    #: Per destination GPU, the payload rows parallel to ``inboxes`` (int64
    #: values or ``(len, nwords)`` uint64 lane words); ``None`` when the
    #: exchange carried bare vertex ids, as plain BFS does.
    payload_inboxes: list | None = None


@dataclass
class ReduceResult:
    """Outcome of one delegate all-reduce."""

    #: The combined update, shared by every GPU afterwards: a
    #: :class:`Bitmask`, a :class:`BatchBitmask` or an int64 array, as given.
    merged: Bitmask | BatchBitmask | np.ndarray
    #: Modeled time of the intra-rank push-to-GPU0 + broadcast phases.
    local_time_s: float
    #: Modeled time of the inter-rank (I)AllReduce phase.
    global_time_s: float
    #: Bytes exchanged between ranks.
    global_bytes: int


def _payload_array(payload) -> np.ndarray:
    """A payload as the wire carries it: int64 values, or uint64 lane words
    when it has one row of words per vertex."""
    payload = np.asarray(payload)
    return payload.astype(np.uint64 if payload.ndim == 2 else np.int64, copy=False)


def _first_appearances(keys: np.ndarray) -> np.ndarray:
    """``keys`` without repeats, in the order each first occurs."""
    _, first = np.unique(keys, return_index=True)
    return keys[np.sort(first)]


@dataclass
class Communicator:
    """Moves buffers between virtual GPUs and accounts for time and volume."""

    topology: ClusterTopology
    netmodel: NetworkModel
    stats: CommStats = field(default_factory=CommStats)

    # ------------------------------------------------------------------ #
    # Global reduction (delegates)
    # ------------------------------------------------------------------ #
    def allreduce(
        self, updates: list, blocking: bool = True, combine=np.minimum
    ) -> ReduceResult:
        """Two-phase reduction of one delegate update per GPU.

        Parameters
        ----------
        updates:
            One update per GPU, all of one kind and size: packed
            :class:`Bitmask` visited masks or :class:`BatchBitmask` lane masks
            (OR-combined, sent at their packed size, counted as
            ``delegate_mask_bytes``), or int64 arrays of one value per delegate
            (merged by ``combine``, 8 bytes per delegate, counted as
            ``delegate_value_bytes``).  A value array holds ``combine``'s
            identity where its GPU proposed nothing.
        blocking:
            ``True`` models ``MPI_Allreduce``; ``False`` models
            ``MPI_Iallreduce`` with the software penalty observed on Ray.
        combine:
            Binary ufunc merging two value arrays element-wise.
        """
        layout = self.topology.layout
        if len(updates) != layout.num_gpus:
            raise ValueError(
                f"expected {layout.num_gpus} updates (one per GPU), got {len(updates)}"
            )
        first = updates[0]
        values = isinstance(first, np.ndarray)
        if values:
            merged = np.array(first, dtype=np.int64, copy=True)
            for update in updates[1:]:
                if update.size != merged.size:
                    raise ValueError("all delegate updates must have the same size")
                merged = combine(merged, update)
            nbytes = merged.nbytes
        else:
            merged = first.copy()
            for update in updates[1:]:
                merged.or_with(update)
            nbytes = merged.packed_nbytes if isinstance(merged, BatchBitmask) else merged.nbytes

        netmodel, pgpu, ranks = self.netmodel, layout.gpus_per_rank, layout.num_ranks
        local_time = netmodel.local_reduce_time(nbytes, pgpu) + netmodel.local_broadcast_time(
            nbytes, pgpu
        )
        global_time = netmodel.global_allreduce_time(nbytes, ranks, blocking=blocking)
        # Reduction + broadcast trees each move one update per participating
        # rank per phase; the paper counts 2 * d * prank / 8 bytes for masks.
        global_bytes = 2 * nbytes * ranks if ranks > 1 else 0
        if values:
            self.stats.delegate_value_bytes += global_bytes
        else:
            self.stats.delegate_mask_bytes += global_bytes
        self.stats.delegate_reductions += 1
        return ReduceResult(
            merged=merged,
            local_time_s=local_time,
            global_time_s=global_time,
            global_bytes=global_bytes,
        )

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

        Every sender is charged its binning / 32-bit conversion kernel, busy
        or not.  Sends from one GPU are serialised and different GPUs proceed
        in parallel, so each phase's modeled time is the maximum over GPUs of
        their serial time; message times come from
        :meth:`NetworkModel.send_times`.
        """
        layout, netmodel = self.topology.layout, self.netmodel
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
        filter_s = [netmodel.filter_time(size) for size in sizes]
        if not any(sizes):
            # Nothing to route: no byte, no statistic, every inbox empty.
            return ExchangeResult(
                inboxes=[_EMPTY_I64] * p,
                local_time_s=max(filter_s),
                remote_time_s=0.0,
                remote_bytes=0,
                local_bytes=0,
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
        local_s = [0.0] * p
        local_bytes = payload_bytes = 0

        # L: a rank's ids for destination d are staged on its GPU with d's
        # within-rank index; each (sender, owner) chunk that changes GPU is
        # an NVLink transfer charged to its sender.
        staged = local_all2all and layout.gpus_per_rank > 1
        same_rank = self.topology.same_rank_table
        via = src
        if staged:
            staging = self.topology.staging_table
            senders = np.arange(p)[:, None]
            hops = np.where(staging != senders, counts, 0)
            # Chunk (s, d) hops from s to staging[s, d], a GPU of s's rank.
            local_s = netmodel.send_times(hops * wire, same_rank[senders, staging])
            hopped = int(hops.sum())
            local_bytes += hopped * wire
            payload_bytes += hopped * payload_row
            via = staging[src, dst]

        # Inbox order: by owner, then sending (staging) GPU, then emission.
        key = dst * p + via
        if uniquify and staged:
            # U: a staging GPU keeps each destination slot once (ascending,
            # payloads merged in emission order) and is charged a filter over
            # what it holds for each destination — in the order it first
            # received ids for that destination, which the float sum keeps.
            held_ids = np.bincount(key, minlength=p * p)
            pairs = np.flatnonzero(counts)
            first_seen = _first_appearances(pairs % p * p + staging.ravel()[pairs])
            for k, held in zip(first_seen.tolist(), held_ids[first_seen].tolist()):
                local_s[k % p] += netmodel.filter_time(held)
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
        send_s = netmodel.send_times(sent * wire, same_rank)
        local_bytes += int(sent[same_rank].sum()) * wire
        remote_bytes = int(sent[~same_rank].sum()) * wire
        self.stats.normal_messages += int(np.count_nonzero(sent))
        self.stats.normal_vertices_sent += int(sent.sum())
        self.stats.normal_bytes_remote += remote_bytes
        self.stats.normal_bytes_local += local_bytes
        self.stats.normal_payload_bytes += payload_bytes + int(sent.sum()) * payload_row

        bounds = np.cumsum(np.bincount(key // p, minlength=p))[:-1]
        return ExchangeResult(
            inboxes=np.split(slots, bounds),
            local_time_s=max(f + s for f, s in zip(filter_s, local_s)),
            remote_time_s=max(send_s),
            remote_bytes=remote_bytes,
            local_bytes=local_bytes,
            payload_inboxes=None if payload is None else np.split(payload, bounds),
        )
