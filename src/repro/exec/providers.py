"""Kernel providers: *how* a visit kernel computes, independent of *where*.

The execution backends (:mod:`repro.exec.backend`, :mod:`repro.exec.process`,
:mod:`repro.exec.thread`) decide where the per-GPU kernel tasks of a
super-step run — in-process, on a worker pool, on a thread pool.  A
:class:`KernelProvider` decides how each task computes: the vectorized NumPy
kernels of :mod:`repro.core.kernels` (:class:`NumpyProvider`, the default,
zero dependencies) or their Numba-compiled scalar-loop twins
(:class:`NumbaProvider` — ``nopython``, ``nogil=True``, ``cache=True``, so a
thread pool genuinely overlaps them on multi-core hosts).

The two axes compose freely: any backend can run any provider, and because
both providers produce bit-identical kernel outputs (same discovered sets,
same order, same exact ``edges_examined`` accounting), results, workload
counters and modeled times are **provider-invariant by construction** — only
wall-clock changes.  The CI counter gate compares artifacts across providers
to enforce this, just as it does across backends.

Providers are addressed by name — ``"numpy"``, ``"numba"``, or ``"auto"``
(Numba when importable, NumPy otherwise).  :class:`~repro.exec.config.ExecConfig`
settles the name (argument, ``REPRO_KERNELS``, ``auto``; a request for
``"numba"`` on a host without Numba warns once and falls back to NumPy —
the compiled tier is an acceleration, never a requirement) and
:func:`get_provider` hands out the provider for it.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core import kernels as _kernels
from repro.core.kernels import BatchKernelOutput, KernelOutput
from repro.exec.config import PROVIDER_NAMES

__all__ = [
    "PROVIDER_NAMES",
    "KernelProvider",
    "NumpyProvider",
    "NumbaProvider",
    "numba_available",
    "get_provider",
]

def numba_available() -> bool:
    """Whether the Numba-compiled provider can be constructed on this host."""
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


class KernelProvider(abc.ABC):
    """Computes the visit kernels and bitmask bulk ops of one super-step.

    Implementations must be stateless (safe to share across engines, threads
    and — by name — worker processes) and bit-identical to one another: same
    discovered vertices in the same order, same per-discovery sources, same
    exact ``edges_examined`` counts, same lane-word combinations.  Anything
    observable beyond wall-clock time is part of the contract.
    """

    #: Registry name of this provider (recorded in bench artifact records).
    name: str = "?"

    # -- sequential kernels -------------------------------------------- #
    @abc.abstractmethod
    def forward_visit(self, csr, frontier: np.ndarray) -> KernelOutput:
        """Forward-push visit over a pre-filtered frontier."""

    @abc.abstractmethod
    def backward_visit(
        self, reverse_csr, candidates: np.ndarray, parent_in_frontier: np.ndarray
    ) -> KernelOutput:
        """Backward-pull visit with early exit and exact workload counting."""

    # -- weighted / value-propagation kernels --------------------------- #
    def weighted_forward_visit(self, csr, frontier: np.ndarray) -> KernelOutput:
        """Forward push that also gathers the traversed edges' weights.

        Concrete default (NumPy) so every provider supports weighted
        programs; compiled providers override with a bit-exact twin.
        """
        return _kernels.weighted_forward_visit(csr, frontier)

    def contrib_visit(self, csr, rows: np.ndarray, row_values: np.ndarray) -> KernelOutput:
        """Contribution scatter: push one int64 value per row to its neighbours."""
        return _kernels.contrib_visit(csr, rows, row_values)

    # -- batched (MS-BFS) kernels -------------------------------------- #
    @abc.abstractmethod
    def batched_filter_frontier(
        self, rows: np.ndarray, words: np.ndarray, out_degrees: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Previsit filter for a batched frontier (zero-degree drop)."""

    @abc.abstractmethod
    def batched_forward_visit(
        self, csr, frontier_rows: np.ndarray, frontier_words: np.ndarray
    ) -> BatchKernelOutput:
        """Batched forward push: propagate every lane of the frontier."""

    @abc.abstractmethod
    def batched_backward_visit(
        self,
        reverse_csr,
        candidates: np.ndarray,
        parent_words: np.ndarray,
        wanted_words: np.ndarray,
    ) -> BatchKernelOutput:
        """Batched backward pull: each candidate collects its parents' lanes."""

    # -- bitmask bulk ops ---------------------------------------------- #
    @abc.abstractmethod
    def bitmask_set_many(self, mask, indices: np.ndarray) -> None:
        """Set many bit positions of a :class:`~repro.utils.bitmask.Bitmask`."""

    @abc.abstractmethod
    def bitmask_test_many(self, mask, indices: np.ndarray) -> np.ndarray:
        """Test many bit positions of a :class:`~repro.utils.bitmask.Bitmask`."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class NumpyProvider(KernelProvider):
    """The vectorized NumPy kernels — the historical code path, unchanged.

    Every method delegates to :mod:`repro.core.kernels` or the
    :class:`~repro.utils.bitmask.Bitmask` bulk ops; this class only gives the
    existing implementation a registry name and the provider interface.
    """

    name = "numpy"

    def forward_visit(self, csr, frontier):
        return _kernels.forward_visit(csr, frontier)

    def backward_visit(self, reverse_csr, candidates, parent_in_frontier):
        return _kernels.backward_visit(reverse_csr, candidates, parent_in_frontier)

    def batched_filter_frontier(self, rows, words, out_degrees):
        return _kernels.batched_filter_frontier(rows, words, out_degrees)

    def batched_forward_visit(self, csr, frontier_rows, frontier_words):
        return _kernels.batched_forward_visit(csr, frontier_rows, frontier_words)

    def batched_backward_visit(self, reverse_csr, candidates, parent_words, wanted_words):
        return _kernels.batched_backward_visit(
            reverse_csr, candidates, parent_words, wanted_words
        )

    def bitmask_set_many(self, mask, indices):
        mask.set_many(indices)

    def bitmask_test_many(self, mask, indices):
        return mask.test_many(indices)


class NumbaProvider(NumpyProvider):
    """Numba-compiled scalar-loop kernels (``nopython, nogil, cache=True``).

    Overrides the hot kernels with the compiled twins from
    :mod:`repro.exec._numba_kernels`; everything not worth compiling (the
    batched previsit filter, one vectorized gather and mask, and
    ``bitmask_test_many``) inherits the NumPy path.  Constructing this class
    raises :class:`ImportError` on hosts without Numba — callers go through
    :class:`~repro.exec.config.ExecConfig`, which turns that into a
    warn-once NumPy fallback.

    The compiled backward pull is the headline win: it early-exits each
    candidate's parent scan edge by edge, where the NumPy twin exits by rounds
    (first parent, next four, the rest) and so still lists about a quarter
    more edges than it examines, through a dozen array passes per round.
    """

    name = "numba"

    def __init__(self) -> None:
        from repro.exec import _numba_kernels

        self._jit = _numba_kernels

    def forward_visit(self, csr, frontier):
        frontier = np.asarray(frontier, dtype=np.int64).ravel()
        if frontier.size == 0:
            return KernelOutput(np.zeros(0, dtype=np.int64), 0, backward=False)
        discovered, sources = self._jit.forward_gather(
            csr.row_offsets, csr.column_indices, frontier
        )
        return KernelOutput(
            discovered=discovered,
            edges_examined=int(discovered.size),
            backward=False,
            sources=sources,
        )

    def backward_visit(self, reverse_csr, candidates, parent_in_frontier):
        candidates = np.asarray(candidates, dtype=np.int64).ravel()
        if candidates.size == 0:
            return KernelOutput(np.zeros(0, dtype=np.int64), 0, backward=True)
        in_frontier = np.ascontiguousarray(parent_in_frontier, dtype=np.bool_)
        discovered, sources, examined = self._jit.backward_scan(
            reverse_csr.row_offsets, reverse_csr.column_indices, candidates, in_frontier
        )
        return KernelOutput(
            discovered=discovered,
            edges_examined=int(examined),
            backward=True,
            sources=sources,
        )

    def weighted_forward_visit(self, csr, frontier):
        if csr.edge_weights is None:
            # Delegate to the NumPy twin for its clear missing-weights error.
            return _kernels.weighted_forward_visit(csr, frontier)
        frontier = np.asarray(frontier, dtype=np.int64).ravel()
        if frontier.size == 0:
            return KernelOutput(np.zeros(0, dtype=np.int64), 0, backward=False)
        discovered, sources, weights = self._jit.weighted_forward_gather(
            csr.row_offsets, csr.column_indices, csr.edge_weights, frontier
        )
        return KernelOutput(
            discovered=discovered,
            edges_examined=int(discovered.size),
            backward=False,
            sources=sources,
            weights=weights,
        )

    def contrib_visit(self, csr, rows, row_values):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        row_values = np.asarray(row_values, dtype=np.int64).ravel()
        if rows.size != row_values.size:
            raise ValueError("row_values must be parallel to rows")
        if rows.size == 0:
            return KernelOutput(np.zeros(0, dtype=np.int64), 0, backward=False)
        discovered, sources, values = self._jit.contrib_gather(
            csr.row_offsets, csr.column_indices, rows, row_values
        )
        if discovered.size == 0:
            return KernelOutput(np.zeros(0, dtype=np.int64), 0, backward=False)
        return KernelOutput(
            discovered=discovered,
            edges_examined=int(discovered.size),
            backward=False,
            sources=sources,
            values=values,
        )

    def batched_forward_visit(self, csr, frontier_rows, frontier_words):
        frontier_rows = np.asarray(frontier_rows, dtype=np.int64).ravel()
        frontier_words = np.ascontiguousarray(frontier_words, dtype=np.uint64)
        nwords = frontier_words.shape[1] if frontier_words.ndim == 2 else 1
        if frontier_rows.size == 0:
            return _kernels._empty_batch_output(nwords, backward=False)
        discovered, words, edges = self._jit.batched_forward_scatter(
            csr.row_offsets, csr.column_indices, frontier_rows, frontier_words, csr.num_cols
        )
        if discovered.size == 0:
            return _kernels._empty_batch_output(nwords, backward=False)
        return BatchKernelOutput(
            discovered=discovered, words=words, edges_examined=int(edges), backward=False
        )

    def batched_backward_visit(self, reverse_csr, candidates, parent_words, wanted_words):
        candidates = np.asarray(candidates, dtype=np.int64).ravel()
        parent_words = np.ascontiguousarray(parent_words, dtype=np.uint64)
        wanted_words = np.ascontiguousarray(wanted_words, dtype=np.uint64)
        nwords = parent_words.shape[1] if parent_words.ndim == 2 else 1
        if candidates.size == 0:
            return _kernels._empty_batch_output(nwords, backward=True)
        discovered, words, edges = self._jit.batched_backward_pull(
            reverse_csr.row_offsets,
            reverse_csr.column_indices,
            candidates,
            parent_words,
            wanted_words,
        )
        if edges == 0:
            return _kernels._empty_batch_output(nwords, backward=True)
        return BatchKernelOutput(
            discovered=discovered, words=words, edges_examined=int(edges), backward=True
        )

    def bitmask_set_many(self, mask, indices):
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if idx.size == 0:
            return
        mask._check_bounds(idx)
        self._jit.bitmask_set_bits(mask.buffer, idx)


_SINGLETONS: dict = {}


def get_provider(name: str) -> KernelProvider:
    """The shared singleton provider for a *resolved* name (numpy / numba).

    Providers are stateless, so one instance per process suffices; worker
    processes resolve providers from the name carried in their task tuples
    through this same cache (each worker compiles — or loads the on-disk
    Numba cache — once).  This raises on an unavailable ``"numba"`` rather
    than falling back: the fallback is :class:`~repro.exec.config.ExecConfig`'s,
    which never hands out that name on such a host.
    """
    provider = _SINGLETONS.get(name)
    if provider is None:
        if name == "numpy":
            provider = NumpyProvider()
        elif name == "numba":
            provider = NumbaProvider()
        else:
            raise ValueError(
                f"unknown kernel provider {name!r}; expected 'numpy' or 'numba'"
            )
        _SINGLETONS[name] = provider
    return provider
