"""One precedence table for the four run-time axes.

Every public entry point resolves ``backend`` / ``kernels`` / ``storage`` /
``trace`` once, on entry, through :class:`repro.exec.ExecConfig`: an
explicit argument beats a bench scenario's pin, a pin beats the environment
variable, the environment beats the default, names are stripped and
lower-cased, and a bad name — explicit or from the environment — raises at
construction with the axis, the value and the valid choices in the message.
The kernels axis has one implementation: ``numpy`` and ``auto`` resolve to
``numpy``, and ``numba`` or a kernel object is a bad name like any other.

Each row of :data:`ROWS` is ``(entry point, axis, source)``.  :data:`CASES`
says, per axis and source, what the row passes explicitly, what the scenario
pins, what the environment holds and what must be resolved; every source
puts a *different* value one level down, so a row only passes when its own
level wins.  The entry points are the resolver itself, ``TraversalEngine``,
``DynamicEngine``, ``repro.session``, ``run_scenario`` and a ``repro bfs
--json`` subprocess.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import pytest

import repro
from repro.bench.runner import run_scenario
from repro.bench.scenarios import Scenario
from repro.core.engine import TraversalEngine
from repro.dynamic import DynamicEngine, DynamicGraph
from repro.exec.config import ExecConfig
from repro.graph.rmat import generate_rmat
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions

AXES = ("backend", "kernels", "storage", "trace")
ENV = {axis: f"REPRO_{axis.upper()}" for axis in AXES}
SRC = str(Path(repro.__file__).resolve().parents[1])


class Case(NamedTuple):
    explicit: object = None
    pin: object = None
    env: object = None
    #: The resolved value, or (for a bad name) a regex of the ValueError.
    expect: object = None


class _NamedKernels:
    """What a kernel-provider object looked like: a named kernel set."""

    name = "numpy"


def _error(axis: str, value: str, source: str = "") -> str:
    choices = {
        "backend": "inline, process, thread",
        "kernels": "numpy, auto",
        "storage": "memory, mmap, compressed",
    }[axis]
    prefix = rf"\$REPRO_{axis.upper()}: " if source == "env" else ""
    return rf"{prefix}{axis} must be one of {choices}, got '{value}'"


#: axis -> source -> Case.  Trace paths are file names inside a per-module
#: directory; ``expect`` names the file that must be the trace.
CASES = {
    "backend": {
        "explicit": Case(explicit=" Thread ", pin="process", env="process", expect="thread"),
        "pin": Case(pin="thread", env="process", expect="thread"),
        "environment": Case(env="thread", expect="thread"),
        "default": Case(expect="inline"),
        "bad environment": Case(env="teleport", expect=_error("backend", "teleport", "env")),
        "bad explicit": Case(explicit="Teleport", expect=_error("backend", "Teleport")),
    },
    "kernels": {
        # The environment would raise if read: only the explicit level wins.
        "explicit": Case(explicit=" Auto", env="numba", expect="numpy"),
        "environment": Case(env=" NumPy", expect="numpy"),
        "default": Case(expect="numpy"),
        "bad environment": Case(env="fortran", expect=_error("kernels", "fortran", "env")),
        "bad explicit": Case(explicit="Fortran", expect=_error("kernels", "Fortran")),
        "numba environment": Case(env="numba", expect=_error("kernels", "numba", "env")),
        "numba explicit": Case(explicit="numba", expect=_error("kernels", "numba")),
        "object explicit": Case(
            explicit=_NamedKernels(),
            expect=r"kernels must be one of numpy, auto, got <.*_NamedKernels object at",
        ),
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
    "TraversalEngine": ("backend", "kernels"),
    "DynamicEngine": ("backend", "kernels"),
    "session": ("backend", "kernels", "storage"),
    "run_scenario": ("backend", "kernels", "storage"),
    CLI: AXES,
}
#: Entry points with a scenario, hence a pin level.
PINNED = {"ExecConfig", "run_scenario"}
#: Sources a command line cannot express.
IN_PROCESS_ONLY = {"object explicit"}

ROWS = [
    pytest.param(entry, axis, source, id=f"{entry}-{axis}-{source}")
    for entry, axes in ENTRY_AXES.items()
    for axis in axes
    for source in CASES[axis]
    if (source != "pin" or entry in PINNED)
    and (source not in IN_PROCESS_ONLY or entry != CLI)
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
        "kernels": config.kernels,
        "storage": config.storage,
        "trace": None if config.trace is None else config.trace.name,
    }


def _traversal_engine(explicit, pins, graph, trace_dir):
    engine = TraversalEngine(graph, **explicit)

    def probe():
        with engine:
            return {"backend": engine.backend.name, "kernels": engine.config.kernels_name}

    return probe


def _dynamic_engine(explicit, pins, graph, trace_dir):
    engine = DynamicEngine(DynamicGraph(generate_rmat(6, rng=1), "2x1x2", 4), **explicit)

    def probe():
        with engine:
            engine.run(repro.BFSLevels(source=1))
            return {"backend": engine.backend_name, "kernels": engine.config.kernels_name}

    return probe


def _session(explicit, pins, graph, trace_dir):
    builder = repro.session(layout="2x1x2", **explicit)

    def probe():
        with builder.generate(scale=6, seed=1).threshold(4).build() as built:
            return {
                "backend": built.engine.backend.name,
                "kernels": built.engine.config.kernels_name,
                "storage": built.storage_name,
            }

    return probe


def _run_scenario(explicit, pins, graph, trace_dir):
    spec = Scenario("t-exec-config", "rmat", 6, "levels", threshold=4, sources=1, **pins)
    record = run_scenario(spec, repeats=1, **explicit)
    return lambda: {axis: record[axis] for axis in ("backend", "kernels", "storage")}


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
        for axis in ("backend", "kernels", "storage")
        for source in CASES[axis]
        if source not in VALID and source not in IN_PROCESS_ONLY
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
        raise ValueError(err)
    payload = json.loads(out)
    return {
        "backend": payload["backend"],
        "kernels": payload["kernels"],
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
        "numba environment", "numba explicit", "object explicit",
    }
    for entry, axes in ENTRY_AXES.items():
        covered = {(a, s) for e, a, s in (row.values for row in ROWS) if e == entry}
        assert {a for a, _ in covered} == set(axes)


# --------------------------------------------------------------------------- #
# bench: an unpinned scenario follows $REPRO_BACKEND, and says so
# --------------------------------------------------------------------------- #
@pytest.fixture()
def thread_env(monkeypatch):
    for variable in ENV.values():
        monkeypatch.delenv(variable, raising=False)
    monkeypatch.setenv("REPRO_BACKEND", "thread")


def test_bench_run_follows_repro_backend(thread_env, tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "bench.json"
    name = "rmat14-levels-do-br"
    assert main(["bench", "run", "--scenario", name, "--repeats", "1", "--output", str(out)]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.endswith("backend=thread, kernels=numpy, storage=memory")
    assert json.loads(out.read_text())["scenarios"][name]["backend"] == "thread"


def test_bench_list_shows_the_pin_or_the_resolved_backend(thread_env, capsys):
    from repro.cli import main

    assert main(["bench", "list", "--json"]) == 0
    backends = {entry["name"]: entry["backend"] for entry in json.loads(capsys.readouterr().out)}
    assert backends["rmat16-levels-do-br-process"] == "process"  # pinned
    assert backends["rmat14-levels-do-br"] == "thread"  # unpinned
    assert set(backends.values()) == {"thread", "process"}
