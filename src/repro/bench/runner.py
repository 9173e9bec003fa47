"""The timed benchmark runner.

:func:`run_scenario` materialises one :class:`repro.bench.scenarios.Scenario`
— generate the graph, partition it, then run the frontier program from each
source, or replay the scenario's stream through its row of
:data:`repro.bench.streams.STREAM_TABLE` — and measures three independent
things:

* **wall-clock seconds** of each pipeline phase (graph build, partitioning,
  traversal) plus the traversal-internal phases the engine accounts
  (kernels, nn exchange, delegate reductions).  Traversal phases take the
  *minimum* over ``repeats`` identical passes, the usual noise filter for
  micro-benchmarks;
* the **modeled milliseconds** of the simulated cluster (the paper's metric),
  summed over the scenario's sources; and
* the **workload counters** — iterations, edges examined per kernel class,
  communication volumes and a checksum of the answers — which are fully
  deterministic.

Determinism is asserted, not assumed: with ``check_determinism=True`` (the
default whenever ``repeats >= 2``) the counters of every repeat are compared
and any difference raises :class:`BenchDeterminismError`, because a
non-reproducible workload would make every other number in the artifact
meaningless.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Sequence

from repro.bench.artifact import new_artifact, save_artifact
from repro.bench.scenarios import Scenario
from repro.bench.streams import (
    STREAM_TABLE,
    TRAVERSAL,
    BenchDeterminismError,
    _result_counters,
    values_checksum,
)
from repro.core.engine import TraversalEngine
from repro.exec.config import ExecConfig
from repro.utils.rss import max_rss_mb

__all__ = [
    "BenchDeterminismError",
    "values_checksum",
    "time_program",
    "run_scenario",
    "run_suite",
]

#: The pipeline phases a record's ``total`` adds up, where present.
_PIPELINE = ("graph_build", "partition", "storage", "traversal", "apply")


def _repeat(one_pass: Callable[[], tuple], repeats: int, check_determinism: bool) -> tuple:
    """Call ``one_pass() -> (wall, outcome)`` ``repeats`` times.

    Returns the per-phase wall minima and the first pass's outcome — raising
    :class:`BenchDeterminismError` if a later pass's outcome differs (unless
    ``check_determinism`` is off).
    """
    walls: list[dict] = []
    first = None
    for i in range(repeats):
        wall, outcome = one_pass()
        walls.append(wall)
        if i == 0:
            first = outcome
        elif check_determinism and outcome != first:
            raise BenchDeterminismError(
                "workload counters differ between two identical passes: "
                f"{first} vs {outcome}"
            )
    phases = sorted({phase for wall in walls for phase in wall})
    return {phase: min(w.get(phase, 0.0) for w in walls) for phase in phases}, first


def time_program(
    engine: TraversalEngine,
    program_factory: Callable[[], object],
    repeats: int = 3,
    check_determinism: bool = True,
) -> dict:
    """Run one program ``repeats`` times; return wall phases + counters.

    The returned record holds the per-phase wall minima (seconds), the modeled
    time of one pass, and the deterministic counters — raising
    :class:`BenchDeterminismError` if any repeat disagrees on the counters
    (unless ``check_determinism`` is off).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

    def one_pass() -> tuple:
        result = engine.run(program_factory())
        return dict(result.wall_s), (_result_counters(result), result.timing.as_dict())

    wall, (counters, modeled) = _repeat(one_pass, repeats, check_determinism)
    return {"wall_s": wall, "modeled_ms": modeled, "counters": counters}


def run_scenario(
    spec: Scenario,
    repeats: int = 2,
    check_determinism: bool | None = None,
    baseline: bool = False,
    backend: str | None = None,
    kernels: str | None = None,
    storage: str | None = None,
) -> dict:
    """Execute one scenario end to end; return its artifact record.

    Parameters
    ----------
    spec:
        The scenario to run.
    repeats:
        Passes over the scenario (every source, or the whole stream); wall
        times keep the per-phase minimum.
    check_determinism:
        Assert counter equality across passes.  Defaults to ``repeats >= 2``
        (a single pass has nothing to compare).
    baseline:
        For stream scenarios only: replay the kind's baseline mode — serving
        sequentially, the cluster tier without hedging, dynamic maintenance
        timed as full recompute (each row's ``baseline``).  Gated counters
        are identical either way; traversal and build scenarios ignore it.
    backend, kernels, storage:
        The run-time axes, resolved once into a
        :class:`repro.exec.ExecConfig`: an explicit value here, else the
        scenario's pin (``spec.backend`` / ``spec.storage``), else
        ``$REPRO_BACKEND`` / ``$REPRO_KERNELS`` / ``$REPRO_STORAGE``, else
        inline / auto / memory.  What ran lands in the record's
        ``backend`` / ``kernels`` / ``storage`` keys — never in the spec,
        which identifies the workload.  Mutating scenarios (dynamic,
        serve/cluster with updates) run on memory storage and record that.
    """
    config = ExecConfig.resolve(backend=backend, kernels=kernels, storage=storage)
    return _run(spec, config, repeats, check_determinism, baseline)


def _run(
    spec: Scenario,
    config: ExecConfig,
    repeats: int = 2,
    check_determinism: bool | None = None,
    baseline: bool = False,
) -> dict:
    """:func:`run_scenario` below its entry: apply the scenario's pins to
    ``config``, then run the scenario through its row — of
    :data:`~repro.bench.streams.STREAM_TABLE`, or
    :data:`~repro.bench.streams.TRAVERSAL` for a program."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if check_determinism is None:
        check_determinism = repeats >= 2
    if check_determinism and repeats < 2:
        raise ValueError("determinism checking needs at least two repeats")
    config = config.pinned(**spec.pins)
    kind = STREAM_TABLE.get(spec.program, TRAVERSAL)
    if kind.mutates(spec):
        config = replace(config, storage="memory")
    prepared = kind.prepare(spec, config)
    try:
        feed, extra = kind.feed(spec, prepared)

        def one_pass() -> tuple:
            replayed = kind.replay(prepared, baseline=baseline, **feed)
            return replayed.wall, (replayed.counters, replayed.modeled_ms, replayed.section)

        wall, (counters, modeled, section) = _repeat(one_pass, repeats, check_determinism)
    finally:
        prepared.close()
    section = kind.finish(spec, prepared, section, wall)
    if section is not None:
        extra[kind.section] = section
    prepared.rss["traversal"] = max_rss_mb()
    wall = {**prepared.wall, **wall}
    wall["total"] = sum(wall[phase] for phase in _PIPELINE if phase in wall)
    return {
        "spec": spec.describe(),
        "repeats": repeats,
        # What ran: the run-time axes live in the record, never in the spec.
        "backend": prepared.config.backend_name,
        "kernels": prepared.config.kernels_name,
        "storage": prepared.config.storage,
        "threshold_used": int(prepared.threshold),
        "wall_s": {k: float(v) for k, v in sorted(wall.items())},
        "modeled_ms": modeled,
        "counters": counters,
        **extra,
        "max_rss_mb": {k: float(v) for k, v in sorted(prepared.rss.items())},
    }


def run_suite(
    specs: Iterable[Scenario] | Sequence[Scenario],
    label: str = "",
    quick: bool = False,
    repeats: int = 2,
    out_path=None,
    on_record: Callable[[str, dict], None] | None = None,
    baseline: bool = False,
    backend: str | None = None,
    kernels: str | None = None,
    storage: str | None = None,
) -> dict:
    """Run a set of scenarios and assemble (optionally write) one artifact.

    Parameters
    ----------
    specs:
        Scenarios to execute, in order.
    label:
        Free-form snapshot description stored in the artifact.
    quick:
        Recorded in the artifact (CI smoke vs full sweep).
    repeats:
        Passes over each scenario.
    out_path:
        When given, the artifact is validated and written there as JSON.
    on_record:
        Progress callback invoked with ``(name, record)`` after each scenario.
    baseline:
        Stream scenarios only: replay each kind's baseline mode (the
        "before" half of a before/after artifact pair), as
        :func:`run_scenario` does.
    backend, kernels, storage:
        The run-time axes applied to every scenario, resolved once, here,
        as :func:`run_scenario` resolves them (an explicit value beats each
        scenario's pin, a pin beats the environment); what ran is recorded
        per record, never in the spec.
    """
    config = ExecConfig.resolve(backend=backend, kernels=kernels, storage=storage)
    return _run_suite(specs, config, label, quick, repeats, out_path, on_record, baseline)


def _run_suite(
    specs: Iterable[Scenario] | Sequence[Scenario],
    config: ExecConfig,
    label: str = "",
    quick: bool = False,
    repeats: int = 2,
    out_path=None,
    on_record: Callable[[str, dict], None] | None = None,
    baseline: bool = False,
) -> dict:
    """:func:`run_suite` below its entry, on one resolved ``config``."""
    from repro.obs.summary import summarize_events
    from repro.obs.tracer import get_tracer

    tracer = get_tracer()
    records: dict[str, dict] = {}
    for spec in specs:
        mark = len(tracer.events) if tracer.enabled else 0
        record = _run(spec, config, repeats=repeats, baseline=baseline)
        if tracer.enabled:
            # The trace section is diagnostic, never gated: bench compare
            # ignores it, so traced and untraced artifacts stay comparable.
            record["trace"] = summarize_events(tracer.events[mark:])
        records[spec.name] = record
        if on_record is not None:
            on_record(spec.name, record)
    artifact = new_artifact(records, label=label, quick=quick)
    if out_path is not None:
        save_artifact(artifact, out_path)
    return artifact
