"""What a backward pull lists against what it examines, and where rounds pay.

``PYTHONPATH=src python benchmarks/results/pr20/pull_rounds.py [SEED]`` builds
the ``rmat16-g500`` workload as the benchmark does, records every
``backward_visit`` call of one pass (32 roots) and prints

1. the candidates' first-hit statistics (how early an early exit is);
2. per round schedule, the parent edges a pull *lists* (gathers and tests)
   against the edges an early-exit scan *examines* — computed from each
   candidate's list length and first-hit offset, no kernel variant needed;
3. per size class of a call (the parent edges its candidates hold, which is
   what ``repro.core.kernels.PULL_ONE_PASS_EDGES`` is compared with), the
   summed best-of-5 wall of the recorded calls replayed as one pass and by
   rounds (the constant patched to infinity / zero): the break-even table
   behind the constant's value.
"""

from __future__ import annotations

import contextlib
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[3]
sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))

import workloads  # noqa: E402

from repro.core import kernels  # noqa: E402

SCHEDULES = ((), (1,), (1, 4), (1, 2, 4), (1, 2, 4, 8), (2, 8), (4,), (1, 8), (1, 4, 16))
CLASSES = (0, 256, 512, 1024, 2048, 3072, 4096, 6144, 8192, 20_000, 100_000, 1 << 62)


class _NoSpans:
    def span(self, name):
        return contextlib.nullcontext()


def record(seed: int) -> list:
    """``(csr, candidates, flags)`` of every pull of one pass."""
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    workload = workloads.Rmat16G500(seed, False, work)
    workload.setup(_NoSpans())
    calls = []
    original = kernels.backward_visit

    def spy(csr, candidates, flags):
        calls.append((csr, np.array(candidates), np.array(flags)))
        return original(csr, candidates, flags)

    kernels.backward_visit = spy
    try:
        ctx = workload.begin_pass()
        for op in workload.operations():
            workload.run_op(ctx, op)
    finally:
        kernels.backward_visit = original
    return calls


def first_hits(csr, candidates, flags):
    """Per candidate with a parent list: its length and first-hit offset (-1 = none)."""
    lengths, edge_idx = csr._gather_index(candidates)
    keep = lengths > 0
    lengths = lengths[keep]
    starts = np.cumsum(lengths) - lengths
    hits = flags[csr.column_indices[edge_idx]]
    within = np.arange(hits.size) - np.repeat(starts, lengths)
    big = np.iinfo(np.int64).max
    first = np.minimum.reduceat(np.where(hits, within, big), starts)
    return lengths, np.where(first == big, -1, first)


def listed(lengths, offsets, schedule) -> tuple[int, int]:
    """(edges listed, rounds that list anything) for one call under ``schedule``."""
    need = np.where(offsets >= 0, offsets + 1, lengths)  # what the scan examines
    total, rounds, done = 0, 0, 0
    open_ = np.ones(lengths.size, dtype=bool)
    for width in (*schedule, None):
        if not open_.any():
            break
        reach = lengths if width is None else np.minimum(lengths, done + width)
        total += int((reach[open_] - done).sum())
        rounds += 1
        if width is None:
            break
        done += width
        open_ &= (need > done) & (lengths > done)
    return total, rounds


def timed(calls, cutoff: int) -> list[float]:
    kernels.PULL_ONE_PASS_EDGES = cutoff
    walls = []
    for csr, candidates, flags in calls:
        best = float("inf")
        for _ in range(5):
            started = time.perf_counter()
            kernels.backward_visit(csr, candidates, flags)
            best = min(best, time.perf_counter() - started)
        walls.append(best)
    return walls


def main(seed: str = "1") -> None:
    shipped = kernels.PULL_ONE_PASS_EDGES
    calls = record(int(seed))
    stats = [first_hits(*call) for call in calls if call[1].size]
    lengths = np.concatenate([s[0] for s in stats])
    offsets = np.concatenate([s[1] for s in stats])
    held = np.array([int(s[0].sum()) for s in stats])
    found = offsets >= 0
    examined = int(np.where(found, offsets + 1, lengths).sum())
    print(f"seed {seed}: {len(calls)} pull calls, {lengths.size:,} candidates with a parent list, "
          f"{int(lengths.sum()):,} parent edges held, {examined:,} examined "
          f"({lengths.sum() / examined:.2f}x)")
    print(f"  {found.mean():.1%} find a parent, at offset median "
          f"{int(np.median(offsets[found]))} / p95 {int(np.percentile(offsets[found], 95))} / "
          f"p99 {int(np.percentile(offsets[found], 99))}; mean degree {lengths[found].mean():.1f} "
          f"(finders) vs {lengths[~found].mean():.1f} (scan to the end)")
    order = np.sort(held)[::-1]
    top = int(np.searchsorted(np.cumsum(order), 0.84 * order.sum())) + 1
    print(f"  {top} of the calls hold 84 % of the parent edges\n")

    print("| round schedule | edges listed | listed / examined | rounds run |")
    print("|---|---:|---:|---:|")
    for schedule in SCHEDULES:
        counts = [listed(*s, schedule) for s in stats]
        total = sum(c[0] for c in counts)
        label = ", ".join(map(str, (*schedule, "rest")))
        print(f"| {label} | {total:,} | {total / examined:.2f} | {sum(c[1] for c in counts):,} |")

    one_pass, rounds = timed(calls, 1 << 62), timed(calls, 0)
    kernels.PULL_ONE_PASS_EDGES = shipped
    sizes = np.array([csr.frontier_workload(c) for csr, c, _ in calls])
    one_pass, rounds = np.array(one_pass), np.array(rounds)
    print("\n| parent edges held by the call | calls | one pass, ms | by rounds, ms "
          "| rounds / one pass |")
    print("|---|---:|---:|---:|---:|")
    for low, high in zip(CLASSES, CLASSES[1:]):
        mask = (sizes >= low) & (sizes < high)
        if mask.any():
            a, b = one_pass[mask].sum() * 1e3, rounds[mask].sum() * 1e3
            label = f"{low:,} to {high:,}" if high < 1 << 62 else f">= {low:,}"
            print(f"| {label} | {int(mask.sum())} | {a:.1f} | {b:.1f} | {b / a:.2f} |")
    mixed = np.where(sizes >= shipped, rounds, one_pass).sum()
    print(f"\nall calls: one pass {one_pass.sum():.3f} s, by rounds {rounds.sum():.3f} s, "
          f"rounds from {shipped:,} edges on (shipped) {mixed:.3f} s")


if __name__ == "__main__":
    main(*sys.argv[1:2])
