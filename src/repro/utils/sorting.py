"""Sort-based array primitives shared by every set-up and traversal layer.

``numpy.unique`` without ``return_*`` keywords takes a hash-table path for
integer input since numpy 2.3, which on this library's inputs (packed edge
keys, frontiers, delegate ids) is 5-80x slower than sorting and comparing
neighbours.  :func:`sorted_unique` is that sort path, and ``src/`` calls it
wherever it needs the sorted distinct values of an integer array;
``tests/test_np_unique_guard.py`` keeps plain ``np.unique`` from coming back.
``np.unique(..., return_inverse=True)`` / ``return_counts=True`` still sort
inside numpy and stay as they are.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_unique"]


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``a``, equal to ``np.unique(a)`` in values and dtype.

    Integer and boolean input of any shape is flattened, sorted with
    ``np.sort`` and reduced with a neighbour-compare mask.  Every other dtype
    (floats, where ``np.unique`` collapses NaNs; strings; objects) is
    delegated to ``np.unique`` unchanged.
    """
    a = np.asarray(a)
    if a.dtype.kind not in "iub":
        return np.unique(a)
    s = np.sort(a, axis=None)
    return s[_run_starts(s)]


def _run_starts(s: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal values in sorted ``s``."""
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return keep
