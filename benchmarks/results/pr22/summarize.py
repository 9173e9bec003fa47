"""Summarise alternating parent/change benchmark pairs (runs.jsonl)."""
import json
import statistics as st
import sys

BOUNDS = {"setup_s": 0.25, "traverse_wall_s": 0.25, "modeled_ms": 0.1, "peak_rss_mb": 0.1}
runs = [json.loads(l) for l in open(sys.argv[1]) if l.startswith("{")]
by = {}
for r in runs:
    by.setdefault(r["workload"], {}).setdefault(r["pair"], {})[r["side"]] = r["result"]


def q(xs, p):
    xs = sorted(xs)
    k = (len(xs) - 1) * p
    lo, hi = int(k), min(int(k) + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


for w, pairs in by.items():
    full = {p: v for p, v in pairs.items() if "parent" in v and "change" in v}
    fails = sum(v[s]["failed"] for v in full.values() for s in ("parent", "change"))
    modeled_equal = sum(
        v["parent"]["metrics"]["modeled_ms"]["value"] == v["change"]["metrics"]["modeled_ms"]["value"]
        for v in full.values()
    )
    print(f"{w}: {len(full)} pairs, failed {fails}, modeled_ms equal in {modeled_equal}/{len(full)}")
    for m, bound in BOUNDS.items():
        a = [v["parent"]["metrics"][m]["value"] for v in full.values()]
        b = [v["change"]["metrics"][m]["value"] for v in full.values()]
        ma, mb = st.median(a), st.median(b)
        iqr = q(a, 0.75) - q(a, 0.25)
        ratio = mb / ma if ma else float("nan")
        worse = ratio > 1 + bound
        spread = iqr / ma if ma else 0.0
        verdict = "WORSE" if worse else ("unresolved" if spread > bound and ratio > 1 else "ok")
        print(f"  {m:<16} parent {ma:10.4f} [IQR {iqr:.4f}]  change {mb:10.4f}  ratio {ratio:6.3f}  {verdict}")
