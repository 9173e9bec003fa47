"""Shared fixtures for the test suite.

Graph fixtures are module-scoped (they are deterministic and read-only), so
expensive generation happens once per session even though many test modules
use them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.rmat import generate_rmat
from repro.partition.layout import ClusterLayout


@pytest.fixture(scope="session")
def rmat_small() -> EdgeList:
    """A prepared scale-11 RMAT graph (2048 vertices, ~50k directed edges)."""
    return generate_rmat(11, rng=1)


@pytest.fixture(scope="session")
def rmat_medium() -> EdgeList:
    """A prepared scale-13 RMAT graph used by the heavier integration tests."""
    return generate_rmat(13, rng=2)


@pytest.fixture(scope="session")
def rmat_small_csr(rmat_small: EdgeList) -> CSRGraph:
    """Square CSR over the scale-11 RMAT fixture."""
    return CSRGraph.from_edgelist(rmat_small)


@pytest.fixture(scope="session")
def star_graph() -> EdgeList:
    """A symmetric star with one obvious delegate (hub degree 40)."""
    return EdgeList(np.zeros(40, dtype=np.int64), np.arange(1, 41), 41).prepared(hash_seed=None)


@pytest.fixture(scope="session")
def path_graph() -> EdgeList:
    """A symmetric 50-vertex path (long diameter, no delegates at TH >= 2)."""
    return EdgeList(np.arange(49), np.arange(1, 50), 50).prepared(hash_seed=None)


@pytest.fixture(scope="session")
def grid_graph() -> EdgeList:
    """A symmetric 10x8 grid (4-neighbour)."""
    ids = np.arange(80).reshape(10, 8)
    src = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    dst = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    return EdgeList(src, dst, 80).prepared(hash_seed=None)


@pytest.fixture(
    params=["1x1x1", "1x1x4", "1x2x2", "3x1x2", "2x2x2"],
    scope="session",
)
def any_layout(request) -> ClusterLayout:
    """A representative sweep of cluster shapes (1 to 8 virtual GPUs)."""
    return ClusterLayout.from_notation(request.param)


@pytest.fixture(scope="session")
def small_layout() -> ClusterLayout:
    """The default 4-GPU, 2-rank layout used by most unit tests."""
    return ClusterLayout(num_ranks=2, gpus_per_rank=2)


def assert_valid_permutation(perm: np.ndarray, n: int) -> None:
    """Helper: assert ``perm`` is a bijection on [0, n)."""
    assert perm.shape == (n,)
    seen = np.zeros(n, dtype=bool)
    seen[perm] = True
    assert seen.all()
