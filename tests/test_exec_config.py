"""One precedence table for the three run-time axes.

Every public entry point resolves ``backend`` / ``storage`` / ``trace`` once,
on entry, through :class:`repro.exec.ExecConfig`: an explicit argument beats
a bench scenario's pin, a pin beats the environment variable, the
environment beats the default, names are stripped and lower-cased, and a bad
name — explicit or from the environment — raises at construction with the
axis, the value and the valid choices in the message (on the CLI: one
``error:`` line, nothing on stdout, exit code 2).  ``thread`` is a bad
backend name like any other.

Each row of :data:`ROWS` is ``(entry point, axis, source)``.  :data:`CASES`
says, per axis and source, what the row passes explicitly, what the scenario
pins, what the environment holds and what must be resolved; every source
puts a *different* value one level down, so a row only passes when its own
level wins.  The entry points are the resolver itself, ``TraversalEngine``,
``DynamicEngine``, ``repro.session``, ``run_scenario`` and a ``repro bfs
--json`` subprocess.

The visit kernels have one implementation, so ``kernels`` is no axis: the
engines keep a one-value ``kernels`` keyword (``None`` or ``"numpy"``),
bench records and ``--json`` output carry the ``"numpy"`` label, and
``--kernels`` is an unrecognized argument (:class:`TestKernelsLabel`).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import NamedTuple

import pytest

import repro
from repro.bench.runner import run_scenario
from repro.bench.scenarios import Scenario
from repro.core.engine import TraversalEngine
from repro.core.programs import BatchedBFSLevels, ConnectedComponents
from repro.dynamic import DynamicEngine, DynamicGraph
from repro.exec.config import KERNELS_LABEL, ExecConfig
from repro.graph.rmat import generate_rmat
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
from repro.serve.cluster.replica import ReplicaPool
from tests.test_exec_backends import assert_results_identical

AXES = ("backend", "storage", "trace")
ENV = {axis: f"REPRO_{axis.upper()}" for axis in AXES}
SRC = str(Path(repro.__file__).resolve().parents[1])


class Case(NamedTuple):
    explicit: object = None
    pin: object = None
    env: object = None
    #: The resolved value, or (for a bad name) a regex of the ValueError.
    expect: object = None


def _error(axis: str, value: str, source: str = "") -> str:
    choices = {"backend": "inline, process", "storage": "memory, mmap, compressed"}[axis]
    prefix = rf"\$REPRO_{axis.upper()}: " if source == "env" else ""
    return rf"{prefix}{axis} must be one of {choices}, got '{value}'"


#: axis -> source -> Case.  Trace paths are file names inside a per-module
#: directory; ``expect`` names the file that must be the trace.
CASES = {
    "backend": {
        "explicit": Case(explicit=" Process ", pin="inline", env="inline", expect="process"),
        "pin": Case(pin="process", env="inline", expect="process"),
        "environment": Case(env=" Process", expect="process"),
        "default": Case(expect="inline"),
        "bad environment": Case(env="teleport", expect=_error("backend", "teleport", "env")),
        "bad explicit": Case(explicit="Teleport", expect=_error("backend", "Teleport")),
        "thread environment": Case(env="thread", expect=_error("backend", "thread", "env")),
        "thread explicit": Case(explicit="thread", expect=_error("backend", "thread")),
    },
    "storage": {
        "explicit": Case(explicit=" MMAP ", pin="compressed", env="compressed", expect="mmap"),
        "pin": Case(pin="compressed", env="mmap", expect="compressed"),
        "environment": Case(env="mmap", expect="mmap"),
        "default": Case(expect="memory"),
        "bad environment": Case(env="floppy", expect=_error("storage", "floppy", "env")),
        "bad explicit": Case(explicit="Floppy", expect=_error("storage", "Floppy")),
    },
    "trace": {
        "explicit": Case(explicit="explicit.jsonl", env="env.jsonl", expect="explicit.jsonl"),
        "environment": Case(env="env.jsonl", expect="env.jsonl"),
        "default": Case(expect=None),
    },
}

CLI = "repro bfs --json"
#: entry point -> the axes it takes.
ENTRY_AXES = {
    "ExecConfig": AXES,
    "TraversalEngine": ("backend",),
    "DynamicEngine": ("backend",),
    "session": ("backend", "storage"),
    "run_scenario": ("backend", "storage"),
    CLI: AXES,
}
#: Entry points with a scenario, hence a pin level.
PINNED = {"ExecConfig", "run_scenario"}

ROWS = [
    pytest.param(entry, axis, source, id=f"{entry}-{axis}-{source}")
    for entry, axes in ENTRY_AXES.items()
    for axis in axes
    for source in CASES[axis]
    if source != "pin" or entry in PINNED
]

#: The three valid sources a CLI run sets on every axis at once.
GOOD = ("explicit", "environment", "default")
#: Every source that resolves a value; the rest are bad names.
VALID = GOOD + ("pin",)


def _value(axis: str, value, trace_dir: Path):
    """A case value as the entry point takes it (trace names become paths)."""
    if axis == "trace" and value is not None:
        return str(trace_dir / value)
    return value


def _setup(axes, source: str, trace_dir: Path) -> tuple[dict, dict, dict]:
    """``(explicit, pins, env)`` of ``source`` on every axis of ``axes`` that
    has it; every other variable is unset."""
    explicit, pins, env = {}, {}, {axis: None for axis in AXES}
    for axis in axes:
        case = CASES[axis].get(source)
        if case is None:
            continue
        if case.explicit is not None:
            explicit[axis] = _value(axis, case.explicit, trace_dir)
        if case.pin is not None:
            pins[axis] = case.pin
        env[axis] = _value(axis, case.env, trace_dir)
    return explicit, pins, env


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("traces")


@pytest.fixture(scope="module")
def graph():
    return build_partitions(generate_rmat(6, rng=1), ClusterLayout.from_notation("2x1x2"), 4)


# --------------------------------------------------------------------------- #
# In-process entry points: construct (may raise), then report what resolved
# --------------------------------------------------------------------------- #
def _resolver(explicit, pins, graph, trace_dir):
    config = ExecConfig.resolve(**explicit).pinned(**pins)
    return lambda: {
        "backend": config.backend,
        "storage": config.storage,
        "trace": None if config.trace is None else config.trace.name,
    }


def _traversal_engine(explicit, pins, graph, trace_dir):
    engine = TraversalEngine(graph, **explicit)

    def probe():
        with engine:
            return {"backend": engine.backend.name}

    return probe


def _dynamic_engine(explicit, pins, graph, trace_dir):
    engine = DynamicEngine(DynamicGraph(generate_rmat(6, rng=1), "2x1x2", 4), **explicit)

    def probe():
        with engine:
            engine.run(repro.BFSLevels(source=1))
            return {"backend": engine.backend_name}

    return probe


def _session(explicit, pins, graph, trace_dir):
    builder = repro.session(layout="2x1x2", **explicit)

    def probe():
        with builder.generate(scale=6, seed=1).threshold(4).build() as built:
            return {"backend": built.engine.backend.name, "storage": built.storage_name}

    return probe


def _run_scenario(explicit, pins, graph, trace_dir):
    spec = Scenario("t-exec-config", "rmat", 6, "levels", threshold=4, sources=1, **pins)
    record = run_scenario(spec, repeats=1, **explicit)
    return lambda: {axis: record[axis] for axis in ("backend", "storage")}


IN_PROCESS = {
    "ExecConfig": _resolver,
    "TraversalEngine": _traversal_engine,
    "DynamicEngine": _dynamic_engine,
    "session": _session,
    "run_scenario": _run_scenario,
}


# --------------------------------------------------------------------------- #
# The CLI: one subprocess per source (every axis at once) or per bad name
# --------------------------------------------------------------------------- #
def _cli_argv_env(key: tuple, trace_dir: Path) -> tuple[list, dict]:
    axes = AXES if key[0] in GOOD else (key[1],)
    explicit, _, env_values = _setup(axes, key[0], trace_dir)
    argv = [sys.executable, "-m", "repro.cli", "bfs", "--scale", "6", "--layout", "2x1x2",
            "--threshold", "4", "--source", "1", "--json"]
    for axis, value in explicit.items():
        if key[0] == "explicit" and axis != "trace":
            value = value.strip().lower()  # argparse's choices take exact names
        argv += ["--" + axis, value]
    env = {k: v for k, v in os.environ.items() if k not in ENV.values()}
    env["PYTHONPATH"] = SRC
    env.update({ENV[axis]: value for axis, value in env_values.items() if value is not None})
    return argv, env


@pytest.fixture(scope="module")
def cli_runs(trace_dir) -> dict:
    """Every CLI run the table needs, three at a time: ``key -> (code, out,
    err, trace file names)``, keyed ``(source,)`` or ``(source, axis)``."""
    keys = [(source,) for source in GOOD] + [
        (source, axis)
        for axis in ("backend", "storage")
        for source in CASES[axis]
        if source not in VALID
    ]

    def run(key):
        run_dir = trace_dir / "-".join(key).replace(" ", "_")
        run_dir.mkdir()
        argv, env = _cli_argv_env(key, run_dir)
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        traces = sorted(p.name for p in run_dir.iterdir())
        return key, (done.returncode, done.stdout, done.stderr, traces)

    with ThreadPoolExecutor(max_workers=3) as pool:
        return dict(pool.map(run, keys))


def _cli(axis: str, source: str, cli_runs: dict):
    """The CLI row as a probe, raising like the in-process entry points."""
    code, out, err, traces = cli_runs[(source,) if source in GOOD else (source, axis)]
    if code != 0:
        assert (code, out) == (2, "") and "error: " in err.splitlines()[-1]
        raise ValueError(err)
    payload = json.loads(out)
    assert payload["kernels"] == KERNELS_LABEL
    return {
        "backend": payload["backend"],
        "storage": payload["graph"]["storage"],
        "trace": traces[0] if traces else None,
    }


# --------------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("entry, axis, source", ROWS)
def test_precedence(entry, axis, source, graph, trace_dir, request, monkeypatch):
    case = CASES[axis][source]
    bad = source not in VALID
    if entry == CLI:
        cli_runs = request.getfixturevalue("cli_runs")
        if bad and source.endswith("explicit"):
            # argparse owns the CLI's explicit values: exit 2, value and choices.
            expect = rf"--{axis}: invalid choice: '{case.explicit}'"
        else:
            expect = case.expect
        if bad:
            with pytest.raises(ValueError, match=expect):
                _cli(axis, source, cli_runs)
            return
        assert _cli(axis, source, cli_runs)[axis] == expect
        return

    explicit, pins, env = _setup((axis,), source, trace_dir)
    for other in AXES:
        monkeypatch.delenv(ENV[other], raising=False)
    for name, value in env.items():
        if value is not None:
            monkeypatch.setenv(ENV[name], value)
    monkeypatch.setattr(tempfile, "tempdir", str(trace_dir))  # session stores
    construct = IN_PROCESS[entry]
    if bad:
        # The error surfaces at construction, before anything runs.
        with pytest.raises(ValueError, match=case.expect):
            construct(explicit, pins, graph, trace_dir)
        return
    assert construct(explicit, pins, graph, trace_dir)()[axis] == case.expect


def test_table_covers_every_source_of_every_axis():
    sources = {source for axis in AXES for source in CASES[axis]}
    assert sources == {
        "explicit", "pin", "environment", "default", "bad environment", "bad explicit",
        "thread environment", "thread explicit",
    }
    for entry, axes in ENTRY_AXES.items():
        covered = {(a, s) for e, a, s in (row.values for row in ROWS) if e == entry}
        assert {a for a, _ in covered} == set(axes)


# --------------------------------------------------------------------------- #
# bench: an unpinned scenario follows $REPRO_BACKEND, and says so
# --------------------------------------------------------------------------- #
@pytest.fixture()
def clean_env(monkeypatch):
    for variable in ENV.values():
        monkeypatch.delenv(variable, raising=False)
    return monkeypatch


def test_bench_run_follows_repro_backend(clean_env, tmp_path, capsys):
    from repro.cli import main

    clean_env.setenv("REPRO_BACKEND", "process")
    out = tmp_path / "bench.json"
    name = "rmat14-levels-do-br"
    assert main(["bench", "run", "--scenario", name, "--repeats", "1", "--output", str(out)]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.endswith("backend=process, kernels=numpy, storage=memory")
    record = json.loads(out.read_text())["scenarios"][name]
    assert record["backend"] == "process"
    # The kernels label lives in the record, never in the spec.
    assert record["kernels"] == KERNELS_LABEL and "kernels" not in record["spec"]


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_bench_list_shows_the_pin_or_the_resolved_backend(clean_env, capsys, backend):
    from repro.cli import main

    clean_env.setenv("REPRO_BACKEND", backend)
    assert main(["bench", "list", "--json"]) == 0
    backends = {entry["name"]: entry["backend"] for entry in json.loads(capsys.readouterr().out)}
    assert backends["rmat16-levels-do-br-process"] == "process"  # pinned
    assert backends["rmat14-levels-do-br"] == backend  # unpinned


def test_bench_list_mentions_the_axes(capsys):
    from repro.cli import main

    assert main(["bench", "list", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "--backend inline|process," in out
    assert "--storage memory|mmap|compressed" in out


# --------------------------------------------------------------------------- #
# kernels: a label and the engines' one-value keyword, never an axis
# --------------------------------------------------------------------------- #
class TestKernelsLabel:
    def test_engine_keyword_takes_numpy_and_changes_nothing(self, graph):
        reference = TraversalEngine(graph)
        engine = TraversalEngine(graph, kernels="numpy")
        assert_results_identical(reference.run(repro.BFSLevels(3)), engine.run(repro.BFSLevels(3)))
        a = engine.run_batch(BatchedBFSLevels(list(range(40))))
        b = reference.run_batch(BatchedBFSLevels(list(range(40))))
        assert a.workload_by_kernel() == b.workload_by_kernel()
        assert a.timing.elapsed_ms == b.timing.elapsed_ms
        ca, cb = engine.run(ConnectedComponents()), reference.run(ConnectedComponents())
        assert ca.comm_stats.as_dict() == cb.comm_stats.as_dict()

    def test_dynamic_engine_keyword_takes_numpy(self):
        with DynamicEngine(
            DynamicGraph(generate_rmat(6, rng=1), "2x1x2", 4), kernels="numpy"
        ) as engine:
            assert engine.run(repro.BFSLevels(source=1)).iterations > 0

    @pytest.mark.parametrize("name", ["numba", "auto", " NumPy"])
    @pytest.mark.parametrize("entry", ["TraversalEngine", "DynamicEngine"])
    def test_engine_keyword_rejects_every_other_name(self, graph, entry, name):
        with pytest.raises(ValueError, match=f"kernels must be 'numpy', got {name!r}"):
            if entry == "TraversalEngine":
                TraversalEngine(graph, kernels=name)
            else:
                DynamicEngine(DynamicGraph(generate_rmat(6, rng=1), "2x1x2", 4), kernels=name)

    @pytest.mark.parametrize("entry", [
        ExecConfig.resolve, repro.session, partial(run_scenario, None),
        partial(ReplicaPool, None, 1),
    ])
    def test_no_other_entry_takes_kernels(self, entry):
        with pytest.raises(TypeError, match="kernels"):
            entry(kernels="numpy")

    @pytest.mark.parametrize("argv", [
        ["bfs", "--scale", "9"],
        ["components", "--scale", "9"],
        ["mutate", "--scale", "9", "--batches", "1"],
        ["bench", "run", "--quick"],
        ["serve", "bench", "--scale", "9"],
    ])
    def test_kernels_flag_exits_2_everywhere(self, capsys, argv):
        from repro.cli import main

        with pytest.raises(SystemExit) as exited:
            main([*argv, "--kernels", "numpy"])
        captured = capsys.readouterr()
        assert exited.value.code == 2
        assert "error: unrecognized arguments: --kernels numpy" in captured.err
        assert captured.out == ""  # nothing ran
