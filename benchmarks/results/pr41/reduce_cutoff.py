"""Where the delegate reduce's sorted merge stops beating the dense one.

``PYTHONPATH=src python benchmarks/results/pr41/reduce_cutoff.py``
times ``Communicator.allreduce`` on a 2x1x2 layout (four GPUs, each
proposing a quarter of the entries, with repeats) with the merge forced to
sort (both fill constants 0) and forced to scatter into a dense array (both
``2**62``), for the mask, values (``np.minimum``) and 32-lane channels,
``d`` from 1,024 to 65,536 delegates and fills ``k / d`` from 1/256 to 1.
It prints the best of five repeats of each, in microseconds per reduce, and
sorted / dense.  ``DENSE_MASK_FILL`` (mask) and ``DENSE_VALUES_FILL``
(values, lanes) are the ``d / k`` below which the dense merge is taken.
"""

from __future__ import annotations

import timeit

import numpy as np

from repro.cluster import comm as comm_module
from repro.cluster.comm import Communicator
from repro.cluster.topology import ClusterTopology
from repro.partition.layout import ClusterLayout

TOPOLOGY = ClusterTopology(ClusterLayout.from_notation("2x1x2"))
FILLS = (256, 64, 32, 16, 8, 4, 2, 1)


def proposals(channel: str, d: int, k: int, rng) -> list:
    out = []
    for _ in range(4):
        ids = rng.integers(0, d, size=max(k // 4, 1))
        if channel == "mask":
            out.append(ids)
        elif channel == "values":
            out.append((ids, rng.integers(0, 1 << 40, size=ids.size)))
        else:
            out.append((ids, rng.integers(1, 1 << 32, size=(ids.size, 1), dtype=np.uint64)))
    return out


def time_reduce(given, d: int, fill: int, width: int) -> float:
    comm_module.DENSE_MASK_FILL = comm_module.DENSE_VALUES_FILL = fill
    comm = Communicator(TOPOLOGY)
    call = lambda: comm.allreduce(given, d, width=width)  # noqa: E731
    number = max(1, 20000 // d)
    return min(timeit.repeat(call, number=number, repeat=5)) / number * 1e6


def main() -> None:
    rng = np.random.default_rng(1)
    print(f"{'channel':<7} {'d':>6} {'d/k':>4} {'sorted us':>10} {'dense us':>9} {'ratio':>6}")
    for channel, width in (("mask", 1), ("values", 1), ("lanes", 32)):
        for d in (1024, 4096, 16384, 65536):
            for fill in FILLS:
                given = proposals(channel, d, d // fill, rng)
                sparse = time_reduce(given, d, 0, width)
                dense = time_reduce(given, d, 1 << 62, width)
                print(f"{channel:<7} {d:>6} {fill:>4} {sparse:>10.1f} {dense:>9.1f} "
                      f"{sparse / dense:>6.2f}")


if __name__ == "__main__":
    main()
