"""Sample statistics shared by the harness and the workloads (stdlib only)."""

from __future__ import annotations

import statistics


def summarize(values) -> dict:
    """Median, quartiles and sample count of one timing's samples."""
    values = [float(v) for v in values]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile(values, share: float) -> float:
    """The sample at rank ``share`` (nearest rank, no interpolation)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def rate(count: float, seconds: float) -> float:
    """``count / seconds``, or 0 where the layer did not run."""
    return count / seconds if seconds > 0 else 0.0
