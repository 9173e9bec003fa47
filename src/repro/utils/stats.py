"""The geometric mean the paper reports results with.

The paper reports the *geometric mean* of traversal rates (GTEPS) or elapsed
times over 140 BFS runs from random sources (§VI-A3);
:class:`repro.core.campaign.Campaign` aggregates per-source results through
:func:`geometric_mean`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["geometric_mean"]


def geometric_mean(values: Iterable[float] | np.ndarray) -> float:
    """Geometric mean of strictly positive values.

    Raises
    ------
    ValueError
        If the input is empty or contains non-positive entries (a traversal
        rate or elapsed time of zero or less indicates a bug upstream and
        should not be silently averaged away).
    """
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    if arr.size == 0:
        raise ValueError("geometric_mean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric_mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))
