"""Check ``exchange_records.json`` against the communicator API it was written on.

The golden records were written at commit 207b907, whose ``Communicator``
had a plain and a batched exchange and three delegate reductions.  This
script builds every case with the case builders of ``exchange_records.py``
and runs it through those methods, the calls the JSON was written with:

* ``exchange_normals`` for id-only and int64 payloads (its
  ``payload_inboxes`` are the received payloads);
* ``exchange_batch`` for uint64 lane words (its ``word_inboxes``);
* ``allreduce_delegate_masks`` (over packed masks of the proposed ids),
  ``allreduce_delegate_values`` and ``allreduce_delegate_batch`` for the
  reductions.

It writes nothing; it prints how many records match and exits nonzero on any
mismatch.  Run it against a checkout of that commit::

    git archive 207b907 --prefix=parent/ | tar -x -C /tmp
    PYTHONPATH=/tmp/parent/src python tests/golden/comm/exchange_records_parent_api.py
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from repro.cluster.comm import Communicator
from repro.cluster.netmodel import NetworkModel
from repro.cluster.topology import ClusterTopology
from repro.partition.layout import ClusterLayout
from repro.utils.bitmask import Bitmask

_spec = importlib.util.spec_from_file_location(
    "golden_exchange_records", Path(__file__).with_name("exchange_records.py")
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def run_exchange(case: tuple):
    layout_name, option, payload, shape = case
    layout = ClusterLayout.from_notation(layout_name)
    rng = np.random.default_rng(golden._seed(case))
    boxes, loads = golden.payloads(golden.outboxes(layout, shape, rng), payload, rng)
    comm = Communicator(ClusterTopology(layout), NetworkModel())
    if payload.startswith("words"):
        result = comm.exchange_batch(boxes, loads)
        return comm, result, result.word_inboxes
    result = comm.exchange_normals(
        boxes,
        local_all2all=option != "none",
        uniquify=option == "LU",
        payloads=loads,
        payload_combine=np.add if payload == "add" else np.minimum,
        payload_identity=0 if payload == "add" else None,
    )
    return comm, result, result.payload_inboxes


def run_reduce(case: tuple):
    layout_name, kind, blocking = case
    layout = ClusterLayout.from_notation(layout_name)
    updates = golden._updates(layout, kind, np.random.default_rng(golden._seed(case)))
    comm = Communicator(ClusterTopology(layout), NetworkModel())
    if kind == "masks":
        masks = [Bitmask.from_indices(golden.DELEGATES, hot) for hot in updates]
        return comm, comm.allreduce_delegate_masks(masks, blocking=blocking)
    if kind == "batch":
        return comm, comm.allreduce_delegate_batch(updates, blocking=blocking)
    combine = np.add if kind == "values_add" else np.minimum
    return comm, comm.allreduce_delegate_values(updates, combine=combine, blocking=blocking)


def main() -> int:
    expected = json.loads(golden.GOLDEN.read_text())
    records = {
        golden.case_id(case): golden.exchange_record(*run_exchange(case))
        for case in golden.exchange_cases()
    }
    records.update(
        {golden.case_id(case): golden.reduce_record(*run_reduce(case)) for case in golden.reduce_cases()}
    )
    mismatched = sorted(k for k in expected.keys() | records.keys() if expected.get(k) != records.get(k))
    for key in mismatched:
        print(f"mismatch: {key}")
    print(f"{len(records) - len(mismatched)} of {len(expected)} records match")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
