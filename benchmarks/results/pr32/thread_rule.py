"""The thread backend's keep-or-delete rule, applied to ``thread_ab.py`` pairs.

``python thread_rule.py thread-runs.jsonl`` prints, per workload, the
inline and thread medians of ``traverse_wall_s``, their ratio, how many
pairs the thread side won and how many it won by >= 1.1x, whether
``modeled_ms`` was equal in every pair, and the verdict of the rule stated
before the runs: keep the backend only if some workload shows a >= 1.1x
median win (inline / thread) with the thread side faster in >= 9 of 10
pairs.
"""

import json
import statistics
import sys

WIN = 1.1


def main(path: str) -> int:
    runs = [json.loads(line) for line in open(path) if line.startswith("{")]
    keep = False
    print("| workload | pairs | inline median s | thread median s | thread / inline "
          "| thread faster | thread >= 1.1x faster | modeled_ms equal | failed ops |")
    print("|---|---:|---:|---:|---:|---:|---:|---:|---:|")
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict = {}
        for r in runs:
            if r["workload"] == workload and r["result"] is not None:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        full = [p for p in pairs.values() if len(p) == 2]

        def wall(p, side):
            return p[side]["metrics"]["traverse_wall_s"]["value"]

        inline = statistics.median(wall(p, "parent") for p in full)
        thread = statistics.median(wall(p, "change") for p in full)
        faster = sum(wall(p, "change") < wall(p, "parent") for p in full)
        clear = sum(wall(p, "parent") >= WIN * wall(p, "change") for p in full)
        modeled = sum(
            p["parent"]["metrics"]["modeled_ms"]["value"]
            == p["change"]["metrics"]["modeled_ms"]["value"]
            for p in full
        )
        failed = sum(p[side]["failed"] for p in full for side in p)
        wins = inline / thread >= WIN and faster >= 0.9 * len(full)
        keep = keep or wins
        print(f"| `{workload}` | {len(full)} | {inline:.3f} | {thread:.3f} | "
              f"{thread / inline:.3f} | {faster}/{len(full)} | {clear}/{len(full)} | "
              f"{modeled}/{len(full)} | {failed} |")
    print()
    print("verdict:", "keep the thread backend" if keep else
          "no workload wins >= 1.1x in >= 9 of 10 pairs: delete the thread backend")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
