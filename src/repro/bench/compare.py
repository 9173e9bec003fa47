"""Comparing two benchmark artifacts: the counter-invariance gate.

:func:`compare_artifacts` matches scenarios by name between an *old* (baseline)
and a *new* (candidate) artifact and classifies each one:

``ok``
    The spec and every deterministic workload counter match.
``counter-drift``
    The scenario specs match but the deterministic workload counters (or the
    modeled times derived from them) differ — the traversal *behaved*
    differently, a correctness-level finding.
``spec-changed``
    Same name, different graph/options: the workloads are not comparable
    (informational).
``added`` / ``removed``
    Scenario exists in only one artifact (informational).

Counters are compared exactly because they must not depend on the host, the
backend, the storage mode or tracing.  Wall clock is not judged here: records
keep their ``wall_s`` for the reader, and paired wall-clock judgements belong
to ``benchmarks/perf/compare.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.artifact import validate_artifact

__all__ = ["ScenarioDelta", "CompareReport", "compare_artifacts"]


@dataclass
class ScenarioDelta:
    """Comparison outcome for one scenario name."""

    name: str
    status: str
    note: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "note": self.note}


@dataclass
class CompareReport:
    """All per-scenario deltas plus the aggregate verdict."""

    deltas: list = field(default_factory=list)

    def by_status(self, status: str) -> list:
        return [d for d in self.deltas if d.status == status]

    @property
    def counter_drifts(self) -> list:
        return self.by_status("counter-drift")

    @property
    def ok(self) -> bool:
        """No counter drift: the gate's pass condition (``repro bench compare``
        exits 1 otherwise)."""
        return not self.counter_drifts

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "counter_drifts": len(self.counter_drifts),
            # Names + first divergence per drifting scenario, so CI logs and
            # scripts can name the offenders without walking `scenarios`.
            "counter_drift_scenarios": [
                {"name": d.name, "note": d.note} for d in self.counter_drifts
            ],
            "scenarios": [d.as_dict() for d in self.deltas],
        }

    def summary_lines(self) -> list:
        """Human-readable report, one line per scenario plus a verdict."""
        lines = [
            f"  {d.name:<28} {d.status:<13} {d.note}".rstrip() for d in self.deltas
        ]
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"{verdict}: {len(self.counter_drifts)} counter drift(s) "
            f"over {len(self.deltas)} scenario(s)"
        )
        return lines


def _counter_note(old: dict, new: dict) -> str | None:
    """Describe the first deterministic divergence between two records."""
    old_counters, new_counters = old["counters"], new["counters"]
    for key in sorted(set(old_counters) | set(new_counters)):
        if old_counters.get(key) != new_counters.get(key):
            return (
                f"counters[{key}]: {old_counters.get(key)!r} != {new_counters.get(key)!r}"
            )
    return None


def compare_artifacts(old: dict, new: dict) -> CompareReport:
    """Diff two artifacts scenario by scenario.

    ``old`` and ``new`` are artifact dictionaries (validated here; pass the
    output of :func:`repro.bench.artifact.load_artifact` or the runner
    directly).
    """
    validate_artifact(old, source="old artifact")
    validate_artifact(new, source="new artifact")
    report = CompareReport()
    old_scenarios, new_scenarios = old["scenarios"], new["scenarios"]
    for name in sorted(set(old_scenarios) | set(new_scenarios)):
        if name not in new_scenarios:
            delta = ScenarioDelta(name, "removed", "only in old artifact")
        elif name not in old_scenarios:
            delta = ScenarioDelta(name, "added", "only in new artifact")
        elif old_scenarios[name]["spec"] != new_scenarios[name]["spec"]:
            delta = ScenarioDelta(
                name, "spec-changed", "scenario definition changed; not comparable"
            )
        else:
            drift = _counter_note(old_scenarios[name], new_scenarios[name])
            delta = ScenarioDelta(name, "ok" if drift is None else "counter-drift", drift or "")
        report.deltas.append(delta)
    return report
