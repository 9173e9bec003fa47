"""Golden records of the communicator's two channels.

``exchange_records.json`` beside this file holds, for each case built by
:func:`exchange_cases` and :func:`reduce_cases`, a sha256 over the received
buffers, the ``float.hex()`` of every modeled time, the byte counts and the
``CommStats`` dict of one fresh :class:`~repro.cluster.comm.Communicator`.
The communicator reports volumes only; a record's times are those of a step
bill holding just its exchange or just its reduce, priced by
:meth:`~repro.cluster.NetworkModel.price` (the local phase is the bill's
``local_communication_s``, the remote one its ``remote_normal_exchange_s``
or ``remote_delegate_reduce_s``).  Results of the API these records were
written with carry their times as fields, which are read as they stand.
The JSON is never regenerated: the replay (``tests/test_golden_comm.py``)
proves the folded paths move the same buffers at the same modeled cost.

The JSON was written at commit 207b907, before the point-to-point exchange
and the delegate all-reduce were each folded into one method, by this
script's case builders driving that commit's API: ``exchange_normals`` for
id-only and int64 payloads, ``exchange_batch`` for lane words, and
``allreduce_delegate_masks`` / ``allreduce_delegate_values`` /
``allreduce_delegate_batch`` for the reductions.  This script was then moved
to the folded ``Communicator.exchange`` / ``Communicator.allreduce``;
``exchange_records_parent_api.py`` beside it keeps the old calls and checks
the JSON against a checkout of that commit.  Since the all-reduce takes each
GPU's proposal keyed by delegate id and returns the merged ids (and values),
:func:`run_reduce` hands it the ids of each dense update the case builders
draw and rebuilds the dense merged update the JSON hashes.

Exchange cases cross five layouts, the L / L+U options, four payload kinds
(none, int64 combined by ``np.minimum`` or ``np.add``, uint64 lane words of one
or two words) and five outbox shapes.  Lane-word outboxes are unique per
sender (the batched nn kernel's contract) and travel without L / U, as the
batched path always sent them.  ``disjoint`` gives the GPUs of one rank
disjoint destination sets such that a staging GPU meets its destinations out
of ascending order — the order its L+U filter charges are summed in.
Reduction cases cover 1-bit masks, int64 values (min and add) and 2-D lane
masks, blocking and non-blocking, on every layout.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.cluster.comm import Communicator
from repro.cluster.topology import ClusterTopology
from repro.partition.layout import ClusterLayout
from repro.utils.bitmask import BatchBitmask

GOLDEN = Path(__file__).with_name("exchange_records.json")

LAYOUTS = ("1x1x1", "2x1x2", "4x1x2", "2x2x2", "8x2x4")
OPTIONS = ("none", "L", "LU")
PAYLOADS = ("none", "min", "add", "words1", "words2")
OUTBOXES = ("idle", "one_busy", "duplicates", "self_only", "disjoint")
REDUCTIONS = ("masks", "values_min", "values_add", "batch")
#: Delegate count of the reduction cases (not a multiple of 8 or 64).
DELEGATES = 301
#: Lane width of the batch-mask reduction (two words, the last one partial).
WIDTH = 70


def exchange_cases() -> list[tuple[str, str, str, str]]:
    """``(layout, option, payload, outbox)``; lane words only without L / U."""
    return [
        (layout, option, payload, outbox)
        for layout in LAYOUTS
        for option in OPTIONS
        for payload in PAYLOADS
        for outbox in OUTBOXES
        if option == "none" or not payload.startswith("words")
    ]


def reduce_cases() -> list[tuple[str, str, bool]]:
    """``(layout, kind, blocking)``."""
    return [
        (layout, kind, blocking)
        for layout in LAYOUTS
        for kind in REDUCTIONS
        for blocking in (True, False)
    ]


def case_id(case: tuple) -> str:
    if len(case) == 4:
        return "exchange-" + "-".join(case)
    layout, kind, blocking = case
    return f"reduce-{layout}-{kind}-{'blocking' if blocking else 'nonblocking'}"


def _seed(case: tuple) -> int:
    return int.from_bytes(hashlib.sha256(case_id(case).encode()).digest()[:4], "little")


def _owned(layout: ClusterLayout, g: int, count: int, start: int = 0) -> np.ndarray:
    """``count`` global ids owned by GPU ``g``, from its ``start``-th on."""
    return layout.global_from_local(g, np.arange(start, start + count))


def outboxes(layout: ClusterLayout, shape: str, rng: np.random.Generator) -> list[np.ndarray]:
    """One array of global destination ids per sender."""
    p = layout.num_gpus
    n = 48 * p
    empty = np.zeros(0, dtype=np.int64)
    if shape == "idle":
        return [empty] * p
    if shape == "one_busy":
        boxes = [empty] * p
        boxes[p // 2] = rng.integers(0, n, size=5 * p + 3)
        return boxes
    if shape == "duplicates":
        pool = rng.integers(0, n, size=2 * p + 1)
        return [pool[rng.integers(0, pool.size, size=int(rng.integers(1, 40)))] for _ in range(p)]
    if shape == "self_only":
        return [rng.permutation(_owned(layout, g, 3 + g % 5)) for g in range(p)]
    # disjoint: the GPU with within-rank index k sends only to the GPUs of
    # rank (R - 1 - k) mod R, a different number of ids (with repeats) per
    # sender, so the staging GPUs see high destinations before low ones.
    ranks, pgpu = layout.num_ranks, layout.gpus_per_rank
    boxes = []
    for g in range(p):
        k = g % pgpu
        target = (ranks - 1 - k) % ranks
        parts = [
            _owned(layout, target * pgpu + j, 2 + (g + j) % 4, start=g % 3)
            for j in range(pgpu)
        ]
        box = np.concatenate(parts)
        boxes.append(box[rng.integers(0, box.size, size=box.size + 1 + k)])
    return boxes


def _first_occurrences(ids: np.ndarray) -> np.ndarray:
    _, first = np.unique(ids, return_index=True)
    return ids[np.sort(first)]


def payloads(boxes: list[np.ndarray], kind: str, rng: np.random.Generator):
    """The outboxes (made unique per sender for lane words) and their payloads."""
    if kind == "none":
        return boxes, None
    if kind in ("min", "add"):
        return boxes, [rng.integers(0, 1 << 62, size=box.size) for box in boxes]
    nwords = int(kind[-1])
    boxes = [_first_occurrences(box) for box in boxes]
    words = [
        rng.integers(0, 1 << 64, size=(box.size, nwords), dtype=np.uint64) for box in boxes
    ]
    return boxes, words


def run_exchange(case: tuple):
    """Build one exchange case and run it on a fresh communicator."""
    layout_name, option, payload, shape = case
    layout = ClusterLayout.from_notation(layout_name)
    rng = np.random.default_rng(_seed(case))
    boxes, loads = payloads(outboxes(layout, shape, rng), payload, rng)
    comm = Communicator(ClusterTopology(layout))
    result = comm.exchange(
        boxes,
        local_all2all=option != "none",
        uniquify=option == "LU",
        payloads=loads,
        payload_combine=np.add if payload == "add" else np.minimum,
        payload_identity=0 if payload == "add" else None,
    )
    return comm, result, result.payload_inboxes


def _updates(layout: ClusterLayout, kind: str, rng: np.random.Generator) -> list:
    p = layout.num_gpus
    out = []
    for g in range(p):
        hot = rng.integers(0, DELEGATES, size=int(rng.integers(0, 12))) if g % 3 else []
        if kind == "masks":
            out.append(np.asarray(hot, dtype=np.int64))
        elif kind == "batch":
            mask = BatchBitmask(DELEGATES, WIDTH)
            if len(hot):
                mask.set_lanes(np.asarray(hot), rng.integers(0, WIDTH, size=len(hot)))
            out.append(mask)
        else:
            identity = np.iinfo(np.int64).max if kind == "values_min" else 0
            values = np.full(DELEGATES, identity, dtype=np.int64)
            values[hot] = rng.integers(0, 1 << 40, size=len(hot))
            out.append(values)
    return out


class _Merged(NamedTuple):
    """A reduction's dense merged update, beside its bill."""

    merged: np.ndarray
    bill: tuple


def run_reduce(case: tuple):
    """Build one reduction case and run it on a fresh communicator: each
    GPU proposes the ids (with values or lane words) its dense update holds,
    and the merge is rebuilt into the dense update the record hashes."""
    layout_name, kind, blocking = case
    layout = ClusterLayout.from_notation(layout_name)
    updates = _updates(layout, kind, np.random.default_rng(_seed(case)))
    comm = Communicator(ClusterTopology(layout))
    combine = np.add if kind == "values_add" else np.minimum
    identity = 0 if kind == "values_add" else np.iinfo(np.int64).max
    if kind == "masks":
        proposals = updates
    elif kind == "batch":
        proposals = [(mask.nonzero_rows(), mask.words[mask.nonzero_rows()]) for mask in updates]
    else:
        proposals = [(np.flatnonzero(v != identity), v[v != identity]) for v in updates]
    result = comm.allreduce(
        proposals, DELEGATES, blocking=blocking, combine=combine, identity=identity,
        width=WIDTH if kind == "batch" else 1,
    )
    if kind == "masks":
        flags = np.zeros(DELEGATES, dtype=bool)
        flags[result.ids] = True
        merged = np.packbits(flags, bitorder="little")  # the packed d-bit mask
    elif kind == "batch":
        merged = np.zeros((DELEGATES, (WIDTH + 63) // 64), dtype=np.uint64)
        merged[result.ids] = result.values
    else:
        merged = np.full(DELEGATES, identity, dtype=np.int64)
        merged[result.ids] = result.values
    return comm, _Merged(merged, result.bill)


def _hash_arrays(sha, arrays) -> None:
    if arrays is None:
        sha.update(b"none")
        return
    for array in arrays:
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(np.ascontiguousarray(array).tobytes())


def exchange_digest(case: tuple) -> dict:
    return exchange_record(*run_exchange(case))


def reduce_digest(case: tuple) -> dict:
    return reduce_record(*run_reduce(case))


def _priced(comm, **bill):
    """The modeled times of a step whose bill holds only ``bill`` (an
    exchange's or a reduce's)."""
    from repro.cluster.netmodel import NetworkModel, StepBill

    return NetworkModel().price(StepBill(**bill), comm.topology, overlap_efficiency=0.0)


def exchange_record(comm, result, received) -> dict:
    """The record of one exchange: its communicator, result and payload inboxes."""
    sha = hashlib.sha256()
    _hash_arrays(sha, result.inboxes)
    _hash_arrays(sha, received)
    if hasattr(result, "bill"):
        times = _priced(comm, exchange=result.bill)
        local, remote = times.local_communication_s, times.remote_normal_exchange_s
    else:  # the pre-bill API exchange_records_parent_api.py drives
        local, remote = result.local_time_s, result.remote_time_s
    return {
        "buffers": sha.hexdigest(),
        "local_time_s": float(local).hex(),
        "remote_time_s": float(remote).hex(),
        "remote_bytes": int(comm.stats.normal_bytes_remote),
        "local_bytes": int(comm.stats.normal_bytes_local),
        "stats": comm.stats.as_dict(),
    }


def reduce_record(comm, result) -> dict:
    """The record of one reduction: its communicator and result."""
    merged = result.merged
    if isinstance(merged, BatchBitmask):
        merged = merged.words
    elif not isinstance(merged, np.ndarray):  # the parent API's packed Bitmask
        merged = merged.buffer
    sha = hashlib.sha256()
    _hash_arrays(sha, [merged])
    if hasattr(result, "bill"):
        times = _priced(comm, reduce=result.bill)
        local, remote = times.local_communication_s, times.remote_delegate_reduce_s
    else:  # the pre-bill API exchange_records_parent_api.py drives
        local, remote = result.local_time_s, result.global_time_s
    return {
        "buffers": sha.hexdigest(),
        "local_time_s": float(local).hex(),
        "global_time_s": float(remote).hex(),
        "global_bytes": int(comm.stats.delegate_value_bytes + comm.stats.delegate_mask_bytes),
        "stats": comm.stats.as_dict(),
    }


def main() -> int:
    if GOLDEN.exists():
        print(f"{GOLDEN} exists; it is a fixed point and is never overwritten")
        return 1
    golden = {case_id(case): exchange_digest(case) for case in exchange_cases()}
    golden.update({case_id(case): reduce_digest(case) for case in reduce_cases()})
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
