"""Compare two full-set results of ``run.py --out``: ``compare.py A.json B.json``.

One row per workload x end-to-end metric: A's value with the samples behind it
(quartiles and count of the warm set-ups for ``setup_s``, of the whole-pass
walls for ``traverse_wall_s``), B's value, the ratio B/A with its base, and a
verdict against the metric's bound in ``BENCHMARK.json``:

``ok``          B is not worse than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  the quartile spread of A's or B's own samples exceeds the
                bound, so a difference of that size cannot be told from noise

Simulated quantities (``modeled_ms``, ``modeled_gteps``, every ``model.*`` and
``comm.*`` row, ``failed_ops_share``) are deterministic for a seed: when A and
B ran the same seed they are compared as counts and must be equal (``changed``
otherwise).  Exit status is 1 if any row is ``worse`` or ``changed``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXACT_END_TO_END = ("modeled_ms",)
EXACT_LAYER = ("model.", "comm.", "modeled_gteps", "failed_ops_share")
#: The samples of a run that show the noise behind each host-time metric.
SAMPLES = {"setup_s": "setup_s", "traverse_wall_s": "pass_wall_s"}


def spread(sample: dict) -> float:
    return (sample["q3"] - sample["q1"]) / sample["median"]


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], int]:
    lines: list[str] = []
    bad = 0
    same_seed = a["host"]["seed"] == b["host"]["seed"]
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        lines.append(name)
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            va, vb = wa["metrics"][key], wb["metrics"][key]
            detail = ""
            if key in EXACT_END_TO_END and same_seed:
                verdict = "ok" if math.isclose(va, vb, rel_tol=1e-9) else "changed"
            else:
                worsening = (vb - va) / va if metric["better"] == "lower" else (va - vb) / va
                verdict = "worse" if worsening > bound else "ok"
                if key in SAMPLES:
                    sa, sb = wa["samples"][SAMPLES[key]], wb["samples"][SAMPLES[key]]
                    if max(spread(sa), spread(sb)) > bound:
                        verdict = "unresolved"
                    detail = (f" [{SAMPLES[key]} q1 {sa['q1']:.4g} median {sa['median']:.4g}"
                              f" q3 {sa['q3']:.4g} n {sa['n']}]")
            bad += verdict in ("worse", "changed")
            lines.append(
                f"  {key:<16} A {va:>12.4f}{detail}  B {vb:>12.4f}  "
                f"B/A {vb / va:6.3f} of {va:.4g} {metric['unit']}  bound {bound:.2f}  {verdict}"
            )
        if same_seed:
            changed = [
                key for key in wa["metrics"]
                if key.startswith(EXACT_LAYER) and wa["metrics"][key] != wb["metrics"].get(key)
            ]
            bad += len(changed)
            lines.append(
                "  exact counts (model.*, comm.*, modeled_gteps, failed_ops_share): "
                + (f"changed: {', '.join(changed)}" if changed else "equal")
            )
    if not same_seed:
        lines.append("seeds differ: simulated quantities compared within their bounds only")
    return lines, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, bad = compare(a, b, spec)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
