#!/bin/bash
# Alternating parent/change pairs of benchmarks/perf/run.py --trace 1 (the
# per-layer metrics), one run at a time, with no REPRO_* variable set; each
# run's JSON result line is appended to OUT.  The odd pairs run the parent
# first.  Usage: layers.sh PARENT_CHECKOUT CHANGE_CHECKOUT OUT.jsonl SEED PAIRS WORKLOAD...
set -u
parent=$1 change=$2 out=$3 seed=$4 pairs=$5
shift 5
for pair in $(seq 1 "$pairs"); do
  for w in "$@"; do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
      if [ $side = parent ]; then dir=$parent; else dir=$change; fi
      line=$(cd "$dir" && env -u REPRO_BACKEND -u REPRO_KERNELS -u REPRO_STORAGE -u REPRO_TRACE \
        python3 benchmarks/perf/run.py --workload $w --seed "$seed" --seconds 8 --trace 1 2>/dev/null | tail -1)
      echo "{\"pair\": $pair, \"seed\": $seed, \"workload\": \"$w\", \"side\": \"$side\", \"result\": $line}" >> "$out"
    done
  done
done
