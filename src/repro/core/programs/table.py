"""The program table: what a *program* is, stated once.

Every layer that names a program — the CLI program commands, the serving
query kinds, the bench scenario programs, the engine's dedup and batching
rules, the dynamic subsystem's maintained answers — reads
:data:`PROGRAM_TABLE`; adding or changing a program is one class plus one row
here.  A :class:`ProgramRow` states:

``program``
    The class, as a ``"module:Class"`` path resolved on first use (so
    importing :mod:`repro.core` never imports :mod:`repro.weighted`).
    ``needs_weights`` stays the class attribute it already is.
``takes_source``
    Whether the constructor's first argument is a source vertex.  Source-free
    programs run once per scenario and are shared by every serving query.
``params``
    The declared parameters (:class:`Param`: name, converter, default, help).
    The CLI generates flags from them, ``Query``/``Scenario`` forward their
    same-named fields, and a program keeps each as an attribute of the same
    name.  Ranges are *not* stated here: the program constructors are the
    only place a range is checked.
``batched``
    The MS-BFS style equivalent taking ``(sources, **params)``, if any.
``maintained``
    The repair program of the row's incrementally maintained answer, if it
    has one: the program :class:`repro.dynamic.Maintained` resumes from the
    seeds an edge insertion improves.  It is built from the full-run
    program's same-named attributes, so it is the row's own program when
    that is already label correcting.
``servable``
    Whether the serving tier accepts the program as a query kind.
``baseline``
    The named program the bench runner records side by side (same sources,
    answers asserted equal), if any.
``oracle``
    ``edges -> check(program, result)``: the serial reference.  ``check``
    raises ``AssertionError`` on a mismatch and returns the reference's name.

:func:`make_program` is the only name -> instance path; :func:`row_of`,
:func:`dedup_key` and :func:`batched_factory` are the exact-type lookups the
engine uses (custom subclasses match no row and so opt out of both).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import import_module
from types import MappingProxyType
from typing import Callable

import numpy as np

__all__ = [
    "Param",
    "ProgramRow",
    "PROGRAM_TABLE",
    "make_program",
    "names_where",
    "row_of",
    "dedup_key",
    "batched_factory",
]

#: Default of a parameter the caller must supply.
REQUIRED = object()


@functools.cache
def _resolve(path: str):
    module, _, name = path.partition(":")
    return getattr(import_module(module), name)


def bucket_width(value) -> float | str:
    """``"auto"`` or a float (``inf`` = the single-bucket schedule)."""
    return value if value == "auto" else float(value)


@dataclass(frozen=True)
class Param:
    """One declared program parameter (a constructor keyword)."""

    name: str
    #: Converter from CLI text (or a loosely-typed field) to the value.
    type: Callable
    default: object = REQUIRED
    help: str = ""
    choices: tuple | None = None


@dataclass(frozen=True)
class ProgramRow:
    """One shipped program; see the module docstring for the columns."""

    name: str
    program: str
    takes_source: bool
    oracle: Callable
    params: tuple[Param, ...] = ()
    batched: str | None = None
    maintained: str | None = None
    servable: bool = False
    baseline: str | None = None

    @property
    def cls(self) -> type:
        """The program class (imported on first use)."""
        return _resolve(self.program)

    def pick(self, **given) -> dict:
        """The subset of ``given`` this row declares; ``None`` values are
        left to the constructor's defaults."""
        names = {p.name for p in self.params}
        return {k: v for k, v in given.items() if k in names and v is not None}

    def make_batched(self, sources, **params):
        """The batched program answering ``sources`` in one fused sweep."""
        return _resolve(self.batched)(sources, **params)

    @property
    def repair_cls(self) -> type:
        """The ``maintained`` repair program class (imported on first use)."""
        return _resolve(self.maintained)

    def maintain(self, engine, source: int | None = None, **params):
        """The maintained answer over ``engine`` (a ``DynamicEngine``)."""
        return _resolve(_DYNAMIC + "Maintained")(engine, self.name, source, **params)


# ---------------------------------------------------------------------- #
# Serial oracles
# ---------------------------------------------------------------------- #
def _require_equal(what: str, got, reference, oracle: str) -> str:
    if not np.array_equal(got, reference):
        mismatches = int(np.count_nonzero(np.asarray(got) != np.asarray(reference)))
        raise AssertionError(f"{what} disagree with {oracle} on {mismatches} vertices")
    return oracle


def _bfs_oracle(edges):
    from repro.baselines.serial_bfs import serial_bfs
    from repro.graph.csr import CSRGraph
    from repro.validate.graph500 import validate_distances, validate_parent_tree

    csr = CSRGraph.from_edgelist(edges)

    def check(program, result) -> str:
        reference = serial_bfs(csr, program.source)
        if program.max_levels is not None:
            capped = np.where(reference <= program.max_levels, reference, -1)
            return _require_equal("k-hop distances", result.distances, capped, "serial BFS")
        if hasattr(result, "parents"):
            report = validate_parent_tree(edges, program.source, result.parents, reference)
        else:
            report = validate_distances(edges, program.source, result.distances, reference)
        report.raise_if_invalid()
        return "the serial oracle"

    return check


def _components_oracle(edges):
    from repro.baselines.union_find import serial_components

    reference = serial_components(edges)
    return lambda program, result: _require_equal(
        "component labels", result.labels, reference, "serial union-find"
    )


def _sssp_oracle(edges):
    from repro.baselines.weighted import dijkstra_sssp

    def check(program, result) -> str:
        reference = dijkstra_sssp(
            edges.src, edges.dst, edges.weights, edges.num_vertices, program.source
        )
        what = f"sssp distances (source {program.source})"
        return _require_equal(what, result.distances, reference, "serial Dijkstra")

    return check


def _pagerank_oracle(edges):
    from repro.baselines.weighted import pagerank_power, pagerank_reference_fixed

    graph = (edges.src, edges.dst, edges.num_vertices)

    def check(program, result) -> str:
        if program.mode == "fixed":
            reference = pagerank_reference_fixed(*graph, program.damping, program.iterations)
            return _require_equal(
                "fixed-point ranks", result.ranks, reference, "the serial fixed-point reference"
            )
        reference = pagerank_power(*graph, program.damping, iterations=100)
        drift = float(np.abs(result.ranks_float - reference).max())
        if drift > 1e-3:
            raise AssertionError(
                f"push-mode ranks drift {drift:.2e} from the float power iteration (tolerance 1e-3)"
            )
        return "the float power iteration"

    return check


def _triangles_oracle(edges):
    from repro.baselines.weighted import triangle_count_serial

    total, per_vertex = triangle_count_serial(edges.src, edges.dst, edges.num_vertices)

    def check(program, result) -> str:
        if result.triangles != total:
            raise AssertionError(f"{result.triangles} triangles, the serial count is {total}")
        return _require_equal(
            "per-vertex triangles", result.per_vertex, per_vertex, "the serial triangle count"
        )

    return check


# ---------------------------------------------------------------------- #
# The table
# ---------------------------------------------------------------------- #
_CORE, _WEIGHTED, _DYNAMIC = "repro.core.programs.", "repro.weighted.", "repro.dynamic.incremental:"
# Positional columns: name, program class, takes_source, oracle.
_ROWS = (
    ProgramRow(
        "levels", _CORE + "bfs_levels:BFSLevels", True, _bfs_oracle,
        batched=_CORE + "batched:BatchedBFSLevels",
        maintained=_DYNAMIC + "LevelRepair",
        servable=True,
    ),
    ProgramRow("parents", _CORE + "bfs_parents:BFSParents", True, _bfs_oracle),
    ProgramRow(
        "components", _CORE + "components:ConnectedComponents", False, _components_oracle,
        maintained=_CORE + "components:ConnectedComponents",
    ),
    ProgramRow(
        "khop", _CORE + "khop:KHopReachability", True, _bfs_oracle,
        params=(Param("max_hops", int, help="hop cap"),),
        batched=_CORE + "batched:BatchedReachability",
        servable=True,
    ),
    ProgramRow(
        "sssp", _WEIGHTED + "sssp:DeltaSteppingSSSP", True, _sssp_oracle,
        params=(
            Param(
                "delta", bucket_width, "auto",
                "bucket width: a positive float, 'auto' (1/avg-degree) or 'inf' "
                "(one bucket = the Bellman-Ford schedule)",
            ),
        ),
        maintained=_WEIGHTED + "sssp:DeltaSteppingSSSP",
        servable=True,
        baseline="bellman-ford",
    ),
    ProgramRow("bellman-ford", _WEIGHTED + "sssp:BellmanFordSSSP", True, _sssp_oracle),
    ProgramRow(
        "pagerank", _WEIGHTED + "pagerank:PageRank", False, _pagerank_oracle,
        params=(
            Param("damping", float, 0.85, "damping factor in (0, 1)"),
            Param(
                "mode", str, "fixed",
                "fixed sweep count (deterministic, the gated mode) or "
                "residual-push to an eps threshold",
                choices=("fixed", "push"),
            ),
            Param("iterations", int, 20, "sweeps in fixed mode"),
            Param("eps", float, 1e-7, "residual threshold in push mode"),
        ),
        servable=True,
    ),
    ProgramRow("wcc_hook", _WEIGHTED + "zoo:ComponentsHooking", False, _components_oracle),
    ProgramRow("triangles", _WEIGHTED + "zoo:TriangleCount", False, _triangles_oracle),
)

#: Every shipped program, by the name the CLI, serve and bench layers use.
PROGRAM_TABLE: MappingProxyType = MappingProxyType({row.name: row for row in _ROWS})


def names_where(column: str) -> tuple[str, ...]:
    """Names of the rows whose ``column`` is set, in table order."""
    return tuple(name for name, row in PROGRAM_TABLE.items() if getattr(row, column))


def make_program(name: str, source: int | None = None, **params):
    """Instantiate program ``name`` — the only name -> instance path.

    ``source`` is required by single-source programs and ignored by
    source-free ones; ``params`` must be parameters the row declares.  Any
    parameter out of range raises the constructor's own ``ValueError``.
    """
    row = PROGRAM_TABLE.get(name)
    if row is None:
        raise ValueError(f"unknown program {name!r}; expected one of {tuple(PROGRAM_TABLE)}")
    declared = {p.name for p in row.params}
    stray = sorted(params.keys() - declared)
    if stray:
        raise ValueError(f"{', '.join(stray)} only applies to programs declaring it, not {name!r}")
    missing = [p.name for p in row.params if p.default is REQUIRED and p.name not in params]
    if missing:
        raise ValueError(f"program {name!r} needs {', '.join(missing)}")
    if not row.takes_source:
        return row.cls(**params)
    if source is None:
        raise ValueError(f"program {name!r} needs a source vertex")
    return row.cls(source, **params)


@functools.cache
def _rows_by_type() -> dict:
    return {row.cls: row for row in _ROWS}


def row_of(program) -> ProgramRow | None:
    """The row whose class is *exactly* ``type(program)`` (subclasses may
    carry extra state, so they match no row)."""
    return _rows_by_type().get(type(program))


def dedup_key(program) -> tuple | None:
    """A hashable identity for programs whose re-run would be pure waste:
    shipped programs are value objects, so row + instance state is the whole
    traversal.  ``None`` for types the table does not know."""
    row = row_of(program)
    return None if row is None else (row.name, *sorted(vars(program).items()))


def batched_factory(programs: list):
    """``sources -> batched program`` for a homogeneous list of one batchable
    row with equal parameters; ``None`` when the list is not batchable."""
    rows = {row_of(p) for p in programs}
    row = rows.pop() if len(rows) == 1 else None
    if row is None or row.batched is None:
        return None
    params = row.pick(**vars(programs[0]))
    if any(row.pick(**vars(p)) != params for p in programs[1:]):
        return None
    return lambda sources: row.make_batched(sources, **params)
