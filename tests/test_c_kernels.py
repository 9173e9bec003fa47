"""The compiled kernels against their NumPy statements, and the loader.

Every body of ``src/repro/core/_c_kernels.c`` must return what the NumPy
statement it replaces returns — the same arrays in the same order and dtype,
the same exact edge counts, the same bits, the same exceptions — so which
one ran is invisible to every answer, counter and modeled time.  The NumPy
bodies are forced by patching ``repro.core.kernels._LIB`` to ``None`` here;
``src/`` has no switch for it.

The loader runs when ``repro.core.kernels`` is imported, so its cases run in
child interpreters with their own ``HOME``, ``TMPDIR`` and ``PATH``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.graph.csr import CSRGraph
from repro.storage.codec import compress_csr

SRC = Path(__file__).resolve().parents[1] / "src"

needs_library = pytest.mark.skipif(
    kernels._LIB is None, reason="the compiled kernels did not load on this host"
)


def numpy_bodies():
    """Run the NumPy statements for the duration of a ``with`` block."""
    return mock.patch.object(kernels, "_LIB", None)


def both(call):
    """``(compiled, numpy)`` outcomes of ``call()``: its value, or the type
    and message of what it raised."""
    outcomes = []
    for patch in (mock.patch.object(kernels, "_LIB", kernels._LIB), numpy_bodies()):
        with patch:
            try:
                outcomes.append(("value", call()))
            except (IndexError, ValueError) as error:
                outcomes.append((type(error), str(error)))
    return outcomes


def assert_same_arrays(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def assert_same_output(compiled, numpy):
    """Two KernelOutput outcomes of :func:`both` are identical."""
    assert compiled[0] == numpy[0]
    if compiled[0] != "value":
        assert compiled[1] == numpy[1]
        return
    c, n = compiled[1], numpy[1]
    assert c.backward == n.backward
    assert c.edges_examined == n.edges_examined and type(c.edges_examined) is int
    for field in ("discovered", "sources", "weights", "values"):
        assert_same_arrays(getattr(c, field), getattr(n, field))


def random_csr(seed, num_rows, num_cols, num_edges, column_dtype, weighted=False):
    """A rectangular CSR with hub columns (most pulls hit early), every
    seventh row empty, sorted unique columns per row."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, num_rows, size=num_edges)
    cols = (num_cols * rng.random(num_edges) ** 3).astype(np.int64)
    keep = rows % 7 != 3
    key = np.unique(rows[keep] * num_cols + cols[keep])
    weights = rng.random(key.size) if weighted else None
    return CSRGraph.from_edges(
        key // num_cols, key % num_cols, num_rows, num_cols, column_dtype=column_dtype,
        weights=weights,
    )


graphs = st.builds(
    random_csr,
    seed=st.integers(0, 2**32 - 1),
    num_rows=st.integers(1, 40),
    num_cols=st.integers(1, 40),
    num_edges=st.integers(0, 400),
    column_dtype=st.sampled_from([np.int32, np.int64]),
    weighted=st.booleans(),
)


def rows_of(data, csr, max_size=60):
    """Rows in any order, repeated, possibly none."""
    return np.asarray(
        data.draw(st.lists(st.integers(0, csr.num_rows - 1), max_size=max_size)), dtype=np.int64
    )


@needs_library
class TestKernelsMatchNumpy:
    @given(csr=graphs, density=st.sampled_from([0.0, 0.05, 0.3, 1.0]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_backward_pull(self, csr, density, data):
        candidates = rows_of(data, csr)
        flags = np.random.default_rng(csr.num_edges).random(csr.num_cols) < density
        assert_same_output(*both(lambda: kernels.backward_visit(csr, candidates, flags)))
        # Both sides of the NumPy body's one-pass cutoff.
        with mock.patch.object(kernels, "PULL_ONE_PASS_EDGES", 0):
            assert_same_output(*both(lambda: kernels.backward_visit(csr, candidates, flags)))

    @given(csr=graphs, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_forward_gathers(self, csr, data):
        frontier = rows_of(data, csr)
        assert_same_output(*both(lambda: kernels.forward_visit(csr, frontier)))
        if csr.is_weighted:
            assert_same_output(*both(lambda: kernels.weighted_forward_visit(csr, frontier)))

    @given(csr=graphs, nwords=st.integers(1, 2), seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_batched_pull_and_push(self, csr, nwords, seed, data):
        rng = np.random.default_rng(seed)
        # Sorted distinct rows, as the batched frontier hands them over.
        rows = np.unique(rows_of(data, csr))
        lanes = rng.integers(0, 2**64, (csr.num_cols, nwords), dtype=np.uint64)
        lanes[rng.random(csr.num_cols) < 0.5] = 0  # rows not in the frontier
        wanted = rng.integers(0, 2**64, (rows.size, nwords), dtype=np.uint64)
        wanted[rng.random(rows.size) < 0.3] = 0  # rows that want nothing more
        words = rng.integers(0, 2**64, (rows.size, nwords), dtype=np.uint64)
        for call in (
            lambda: kernels.batched_backward_visit(csr, rows, lanes, wanted),
            lambda: kernels.batched_forward_visit(csr, rows, words),
        ):
            compiled, numpy = both(call)
            assert compiled[0] == numpy[0] == "value"
            c, n = compiled[1], numpy[1]
            assert (c.edges_examined, c.backward) == (n.edges_examined, n.backward)
            assert type(c.edges_examined) is int
            assert_same_arrays(c.discovered, n.discovered)
            assert_same_arrays(c.words, n.words)

    @pytest.mark.parametrize("bad", [-1, 5, 1 << 40])
    def test_out_of_range_rows_raise_the_same_error(self, bad):
        csr = random_csr(1, 5, 5, 20, np.int32, weighted=True)
        rows = np.asarray([0, bad, 3])
        for call in (
            lambda: kernels.backward_visit(csr, rows, np.ones(5, dtype=bool)),
            lambda: kernels.forward_visit(csr, rows),
            lambda: kernels.weighted_forward_visit(csr, rows),
            lambda: kernels.batched_backward_visit(
                csr, rows, np.ones((5, 1), dtype=np.uint64), np.ones((3, 1), dtype=np.uint64)
            ),
            lambda: kernels.batched_forward_visit(csr, rows, np.ones((3, 1), dtype=np.uint64)),
        ):
            compiled, numpy = both(call)
            assert compiled[0] is IndexError and compiled == numpy

    def test_unweighted_graph_refuses_a_weighted_gather(self):
        csr = random_csr(2, 6, 6, 20, np.int64)
        compiled, numpy = both(lambda: kernels.weighted_forward_visit(csr, np.arange(6)))
        assert compiled[0] is ValueError and compiled == numpy


@needs_library
class TestResolvedCsr:
    """A compiled visit resolves a CSR's arrays once per CSR object and
    resolves them again when they are replaced."""

    @pytest.mark.parametrize("replaced", ["column_indices", "edge_weights"])
    def test_a_replaced_array_is_gathered_from(self, replaced):
        csr = random_csr(3, 20, 20, 80, np.int32, weighted=True)
        rows = np.arange(20)
        kernels.weighted_forward_visit(csr, rows)  # resolves and keeps the view
        if replaced == "column_indices":
            csr.column_indices = (csr.num_cols - 1 - csr.column_indices).astype(np.int64)
        else:
            csr.edge_weights = csr.edge_weights * 2.0
        with numpy_bodies():
            want = kernels.weighted_forward_visit(csr, rows)
        assert_same_output(("value", kernels.weighted_forward_visit(csr, rows)), ("value", want))
        bound = csr.__dict__["_bound"]
        assert getattr(bound, replaced) is getattr(csr, replaced)
        assert bound.wide == (replaced == "column_indices")

    def test_replaced_offsets_are_pulled_from(self):
        csr = random_csr(4, 30, 30, 120, np.int64)
        flags = np.zeros(30, dtype=bool)
        flags[::3] = True
        rows = np.arange(30)
        kernels.backward_visit(csr, rows, flags)
        # Every edge moves to row 0: the same columns, other spans.
        csr.row_offsets = np.concatenate(
            ([0], np.full(30, csr.column_indices.size, dtype=np.int64))
        )
        compiled, numpy = both(lambda: kernels.backward_visit(csr, rows, flags))
        assert_same_output(compiled, numpy)
        assert compiled[1].discovered.tolist() in ([0], [])

    def test_copies_and_pickles_leave_the_view_behind(self):
        import copy
        import pickle

        csr = random_csr(5, 10, 10, 30, np.int32)
        kernels.forward_visit(csr, np.arange(10))
        assert "_bound" in csr.__dict__
        for clone in (copy.copy(csr), copy.deepcopy(csr), pickle.loads(pickle.dumps(csr))):
            assert "_bound" not in clone.__dict__
            np.testing.assert_array_equal(clone.column_indices, csr.column_indices)
            assert_same_output(
                ("value", kernels.forward_visit(clone, np.arange(10))),
                ("value", kernels.forward_visit(csr, np.arange(10))),
            )

    def test_one_resolution_per_csr(self, monkeypatch):
        csr = random_csr(6, 10, 10, 30, np.int64)
        kernels.forward_visit(csr, np.arange(10))
        bound = csr.__dict__["_bound"]
        kernels.forward_visit(csr, np.arange(5))
        kernels.backward_visit(csr, np.arange(10), np.ones(10, dtype=bool))
        assert csr.__dict__["_bound"] is bound


# --------------------------------------------------------------------------- #
# CompressedCSR.decode_rows: identity, and corrupt rows raise a named error
# --------------------------------------------------------------------------- #
def decoded(compressed, rows):
    csr = compressed.decode_rows(rows)
    return csr.row_offsets, csr.column_indices, csr.edge_weights


@needs_library
@given(csr=graphs, data=st.data())
@settings(max_examples=150, deadline=None)
def test_decode_rows_matches_numpy(csr, data):
    compressed = compress_csr(csr)
    rows = rows_of(data, csr)
    compiled, numpy = both(lambda: decoded(compressed, rows))
    assert compiled[0] == numpy[0] == "value"
    for c, n in zip(compiled[1], numpy[1]):
        assert_same_arrays(c, n)


def three_rows(column_dtype=np.int64):
    """Rows [1, 900], [5], [7, 8, 2000] over 2048 columns.  Payload bytes:
    01 83 07 | 05 | 07 01 c8 0f (first column raw, then LEB128 gaps)."""
    csr = CSRGraph.from_edges(
        [0, 0, 1, 2, 2, 2], [1, 900, 5, 7, 8, 2000], 3, 2048, column_dtype=column_dtype
    )
    compressed = compress_csr(csr)
    assert compressed.payload.tolist() == [0x01, 0x83, 0x07, 0x05, 0x07, 0x01, 0xC8, 0x0F]
    return compressed


#: (byte, new value, the row named, what the message says).
CORRUPTIONS = [
    (0, 0x81, 0, "number of columns"),  # a value runs into the next: 1 of 2 values
    (1, 0x00, 0, "number of columns"),  # a value splits in two: 3 of 2 values
    (3, 0xFF, 1, "number of columns"),  # the row's one byte runs into row 2
    (2, 0x7F, 0, "column 16260 out of range [0, 2048)"),
    (7, 0x1F, 2, "column 4048 out of range [0, 2048)"),
]


@pytest.mark.parametrize("body", ["compiled", "numpy"])
@pytest.mark.parametrize("column_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("byte,value,row,message", CORRUPTIONS)
def test_corrupt_compressed_rows_raise_naming_the_row(body, column_dtype, byte, value, row,
                                                      message):
    if body == "compiled" and kernels._LIB is None:
        pytest.skip("the compiled kernels did not load on this host")
    compressed = three_rows(column_dtype)
    compressed.payload[byte] = value
    patch = numpy_bodies() if body == "numpy" else mock.patch.object(kernels, "_LIB", kernels._LIB)
    with patch:
        with pytest.raises(ValueError, match=f"corrupt compressed row {row}: .*") as caught:
            compressed.decode_rows(np.arange(3))
        # Decoding only the other rows never reads the damaged bytes.
        others = np.setdiff1d(np.arange(3), [row])
        np.testing.assert_array_equal(
            compressed.decode_rows(others).column_indices,
            three_rows(column_dtype).decode_rows(others).column_indices,
        )
    assert message in str(caught.value)


@pytest.mark.parametrize("bad", [-1, 3])
def test_decode_rows_out_of_range_raise_index_error(bad):
    compressed = three_rows()
    for outcome in both(lambda: compressed.decode_rows(np.asarray([0, bad]))):
        assert outcome[0] is IndexError


# --------------------------------------------------------------------------- #
# The loader
# --------------------------------------------------------------------------- #
PROBE = (
    "import json; from repro.core import kernels; lib = kernels._LIB; "
    "print(json.dumps([None if lib is None else lib._name, kernels._COMPILER]))"
)


def probe(home, tmp, path=None):
    """Import the kernels in a child interpreter; ``(library path or None,
    compiler id)``, with nothing printed on stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC), HOME=str(home), TMPDIR=str(tmp))
    if path is not None:
        env["PATH"] = str(path)
    done = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0 and done.stderr == "", done.stderr
    return json.loads(done.stdout)


def cached(directory: Path) -> list:
    return sorted(p.name for p in directory.iterdir()) if directory.is_dir() else []


def test_no_compiler_falls_back_to_numpy_silently(tmp_path):
    bare = tmp_path / "bin"
    bare.mkdir()
    (bare / "python").symlink_to(sys.executable)
    assert probe(tmp_path / "home", tmp_path, path=bare) == [None, None]


compiler_needed = pytest.mark.skipif(
    shutil.which("cc") is None and shutil.which("gcc") is None, reason="no C compiler on PATH"
)


@compiler_needed
def test_unwritable_cache_goes_to_tempdir_then_numpy(tmp_path):
    home, tmp = tmp_path / "home", tmp_path / "tmp"
    home.mkdir()
    tmp.mkdir()
    (home / ".cache").write_text("not a directory")
    library, compiler = probe(home, tmp)
    assert library is not None and Path(library).parent == tmp / f"repro-{os.getuid()}"
    assert compiler
    # Neither place usable: the NumPy bodies, silently.
    shutil.rmtree(tmp / f"repro-{os.getuid()}")
    (tmp / f"repro-{os.getuid()}").write_text("not a directory")
    assert probe(home, tmp) == [None, None]


@compiler_needed
def test_truncated_library_is_rebuilt(tmp_path):
    home = tmp_path / "home"
    library, _ = probe(home, tmp_path)
    whole = Path(library).read_bytes()
    Path(library).write_bytes(whole[: len(whole) // 2])
    again, _ = probe(home, tmp_path)
    assert again == library and Path(library).read_bytes() == whole


@compiler_needed
def test_concurrent_first_imports_leave_one_library(tmp_path):
    home = tmp_path / "home"
    env = dict(os.environ, PYTHONPATH=str(SRC), HOME=str(home), TMPDIR=str(tmp_path))
    children = [
        subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE, env=env)
        for _ in range(2)
    ]
    paths = {json.loads(child.communicate(timeout=120)[0])[0] for child in children}
    assert len(paths) == 1 and None not in paths
    assert cached(home / ".cache" / "repro") == [Path(paths.pop()).name]
