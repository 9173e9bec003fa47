"""Aggregation of many traversal runs into one reportable campaign.

The paper reports every data point as the geometric mean over 140 BFS runs
from random sources, skipping runs that do not traverse more than one
iteration (§VI-A3).  :class:`Campaign` encodes exactly that protocol once, so
the CLI, the examples and the benchmark harnesses stop hand-rolling the same
per-source loop: it behaves like the plain list of results it aggregates
(indexable, iterable, ``len``-able) and adds the skip rule and the
geometric-mean rates on top.

:func:`run_campaign` is the common driver: run a program per source through
one engine (spread over the pool on a process backend), optionally
validating each run against a serial oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core.results import TraversalResult
from repro.utils.stats import geometric_mean

__all__ = ["Campaign", "run_campaign"]


@dataclass
class Campaign(Sequence):
    """An aggregating sequence of per-source traversal results."""

    #: Every run, in execution order (including skipped single-iteration runs).
    results: list = field(default_factory=list)
    #: Traversals the engine skipped because a duplicate program had already
    #: run (the duplicate positions share the first run's result object).
    saved_traversals: int = 0

    # ------------------------------------------------------------------ #
    # Sequence protocol: a Campaign can stand in for the bare result list
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[TraversalResult]:
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    @classmethod
    def from_results(cls, results: list, saved_traversals: int = 0) -> "Campaign":
        """Wrap an already-computed list of results."""
        return cls(results=list(results), saved_traversals=int(saved_traversals))

    # ------------------------------------------------------------------ #
    # The paper's reporting protocol
    # ------------------------------------------------------------------ #
    @property
    def reported(self) -> list:
        """Runs that traversed more than one iteration (the paper's filter)."""
        return [r for r in self.results if r.traversed_more_than_one_iteration()]

    @property
    def skipped(self) -> list:
        """Single-iteration runs excluded from the aggregate rates."""
        return [r for r in self.results if not r.traversed_more_than_one_iteration()]

    def rates(self, counted_edges: int | None = None) -> list:
        """Per-run GTEPS of the reported runs."""
        return [r.gteps(counted_edges) for r in self.reported]

    def geo_mean_gteps(self, counted_edges: int | None = None) -> float:
        """Geometric-mean GTEPS over the reported runs.

        Raises
        ------
        ValueError
            If every run was skipped (nothing to aggregate).
        """
        rates = self.rates(counted_edges)
        if not rates:
            raise ValueError(
                "campaign has no reported runs (all were single-iteration); "
                "no aggregate rate exists"
            )
        return geometric_mean(rates)

    def geo_mean_elapsed_ms(self) -> float:
        """Geometric-mean modeled elapsed time over the reported runs."""
        times = [r.elapsed_ms for r in self.reported]
        if not times:
            raise ValueError("campaign has no reported runs; no aggregate time exists")
        return geometric_mean(times)

    def summary(self, counted_edges: int | None = None) -> dict:
        """Aggregate dictionary for logging / JSON output."""
        out = {
            "runs": len(self.results),
            "reported": len(self.reported),
            "skipped": len(self.skipped),
            "saved_traversals": self.saved_traversals,
        }
        if self.reported:
            out["geo_mean_gteps"] = self.geo_mean_gteps(counted_edges)
            out["geo_mean_elapsed_ms"] = self.geo_mean_elapsed_ms()
        return out


def run_campaign(
    engine,
    sources: np.ndarray | Sequence[int],
    program_factory: Callable[[int], object] | None = None,
    validate: Callable[[TraversalResult], None] | None = None,
    on_result: Callable[[TraversalResult], None] | None = None,
) -> Campaign:
    """Run one program per source and aggregate the results.

    The runs go through the engine's ``run_each``, so a process backend
    deals them over its pool; results, and the callbacks, come in source
    order either way.

    Parameters
    ----------
    engine:
        A :class:`repro.core.engine.TraversalEngine` or
        :class:`repro.dynamic.DynamicEngine` (anything exposing
        ``run_each(programs)``).
    sources:
        Source vertices, one run each.
    program_factory:
        ``source -> FrontierProgram``; defaults to
        :class:`repro.core.programs.BFSLevels`.
    validate:
        Optional callback invoked with every result (raise to abort — e.g.
        compare against a serial oracle).
    on_result:
        Optional callback invoked with every result after validation (e.g.
        to print a progress line).
    """
    from repro.core.programs.bfs_levels import BFSLevels

    factory = program_factory if program_factory is not None else (lambda s: BFSLevels(source=s))
    programs = [factory(int(source)) for source in np.asarray(sources, dtype=np.int64).ravel()]
    results = []
    for result in engine.run_each(programs):
        if validate is not None:
            validate(result)
        if on_result is not None:
            on_result(result)
        results.append(result)
    return Campaign.from_results(results)
