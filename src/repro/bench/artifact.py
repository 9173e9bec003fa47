"""The benchmark artifact: a stable, machine-readable performance snapshot.

Every invocation of the bench runner produces one JSON document — written to
``BENCH_<timestamp>.json`` by convention — that captures, per scenario:

* **wall-clock seconds** actually spent by this Python reproduction, broken
  into the pipeline phases (graph build, partitioning, traversal, and the
  traversal-internal kernel / exchange / delegate-reduce phases),
* the **modeled milliseconds** of the simulated GPU cluster (the quantity the
  paper reports), and
* the **workload counters** (edges examined per kernel class, communication
  volumes, iteration counts, a checksum of the answer) that must be
  bit-identical between runs of the same scenario on any machine.

The split matters for the CI gate: wall-clock numbers are only comparable
on one host, in paired runs (``benchmarks/perf/compare.py`` judges those),
while counters and modeled times are deterministic everywhere and any drift
in them means the traversal's behaviour changed — the failure
``repro bench compare`` reports.

The schema is versioned; :func:`load_artifact` refuses documents it does not
understand instead of mis-comparing them.

Each record additionally carries the resolved execution ``backend``
(``inline`` / ``process``) that ran the scenario.  The backend deliberately
lives *next to* the spec, not inside it: the spec identifies the workload,
counters are backend-invariant by construction, and keeping the spec
backend-free lets the comparator diff an inline artifact against a
process-pool artifact of the same scenarios — any counter difference then
surfaces as counter drift, i.e. a backend correctness bug.

The ``host`` block names what ran the walls: Python, NumPy, the platform,
and ``native_kernels`` — the compiler that built the compiled kernels of
:mod:`repro.core.kernels`, or ``null`` when they did not load and every
kernel ran its NumPy statement.  Counters do not depend on it.
"""

from __future__ import annotations

import json
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.core import kernels

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "BenchArtifactError",
    "new_artifact",
    "validate_artifact",
    "save_artifact",
    "load_artifact",
    "default_artifact_path",
]

#: Identifier every artifact carries; bump :data:`SCHEMA_VERSION` on changes.
SCHEMA = "repro.bench"
SCHEMA_VERSION = 1

#: Keys every per-scenario record must provide.
RECORD_KEYS = ("spec", "repeats", "wall_s", "modeled_ms", "counters")

#: Wall-clock phases recorded per scenario (seconds).
WALL_PHASES = (
    "graph_build",
    "partition",
    "traversal",
    "kernels",
    "exchange",
    "delegate_reduce",
    "total",
)


class BenchArtifactError(ValueError):
    """A benchmark artifact is missing, malformed, or from an unknown schema."""


def new_artifact(
    records: dict, label: str = "", quick: bool = False, created: str | None = None
) -> dict:
    """Assemble a schema-complete artifact from per-scenario records.

    Parameters
    ----------
    records:
        Mapping from scenario name to the record dictionary produced by
        :func:`repro.bench.runner.run_scenario`.
    label:
        Free-form description of what this snapshot measures (e.g. a commit
        subject or ``"before backward-visit vectorization"``).
    quick:
        Whether the quick subset (CI smoke) was run rather than the full grid.
    created:
        ISO-8601 creation timestamp; defaults to the current UTC time.
    """
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "created": created
        if created is not None
        else datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "label": str(label),
        "quick": bool(quick),
        "host": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
            "native_kernels": kernels._COMPILER if kernels._LIB is not None else None,
        },
        "scenarios": dict(records),
    }


def validate_artifact(obj: object, source: str = "artifact") -> dict:
    """Check that ``obj`` is a well-formed artifact; return it on success.

    Raises
    ------
    BenchArtifactError
        With a message naming ``source`` and the first problem found.
    """
    if not isinstance(obj, dict):
        raise BenchArtifactError(
            f"{source}: expected a JSON object, got {type(obj).__name__}"
        )
    if obj.get("schema") != SCHEMA:
        raise BenchArtifactError(
            f"{source}: schema is {obj.get('schema')!r}, expected {SCHEMA!r}"
        )
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise BenchArtifactError(
            f"{source}: schema_version {version!r} is not supported "
            f"(this code reads version {SCHEMA_VERSION})"
        )
    scenarios = obj.get("scenarios")
    if not isinstance(scenarios, dict):
        raise BenchArtifactError(f"{source}: 'scenarios' must be an object")
    for name, record in scenarios.items():
        if not isinstance(record, dict):
            raise BenchArtifactError(f"{source}: scenario {name!r} is not an object")
        for key in RECORD_KEYS:
            if key not in record:
                raise BenchArtifactError(f"{source}: scenario {name!r} lacks {key!r}")
        wall = record["wall_s"]
        if not isinstance(wall, dict):
            raise BenchArtifactError(f"{source}: scenario {name!r} wall_s must be an object")
        for phase, value in wall.items():
            if not isinstance(value, (int, float)) or value < 0:
                raise BenchArtifactError(
                    f"{source}: scenario {name!r} wall_s[{phase!r}] must be a "
                    f"non-negative number, got {value!r}"
                )
        if not isinstance(record["counters"], dict):
            raise BenchArtifactError(
                f"{source}: scenario {name!r} counters must be an object"
            )
    return obj


def save_artifact(artifact: dict, path: str | Path) -> Path:
    """Validate and write an artifact as indented JSON; return the path."""
    path = Path(path)
    validate_artifact(artifact, source=str(path))
    path.write_text(json.dumps(artifact, indent=2, sort_keys=False) + "\n")
    return path


def load_artifact(path: str | Path) -> dict:
    """Read and validate an artifact from disk.

    Raises
    ------
    BenchArtifactError
        When the file is missing, not JSON, or fails schema validation.
    """
    path = Path(path)
    if not path.exists():
        raise BenchArtifactError(f"{path}: no such artifact")
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise BenchArtifactError(f"{path}: not valid JSON ({exc})") from exc
    return validate_artifact(obj, source=str(path))


def default_artifact_path(directory: str | Path = ".") -> Path:
    """The conventional output path: ``BENCH_<UTC timestamp>.json``."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return Path(directory) / f"BENCH_{stamp}.json"
