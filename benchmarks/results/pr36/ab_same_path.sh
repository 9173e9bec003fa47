#!/bin/bash
# Alternating parent/change pairs of benchmarks/perf/run.py --trace 0, one run
# at a time, with no REPRO_* variable set, both sides run from the same
# checkout path: before every run the side's tree is unpacked afresh into
# WORK (serve14-mixed-updates' peak RSS follows the checkout path).  Each
# run's JSON result line is appended to OUT.  The odd pairs run the parent
# first, the even pairs the change.
# Usage: ab_same_path.sh PARENT.tar CHANGE.tar WORK OUT.jsonl SEED PAIRS [WORKLOAD...]
#   PARENT.tar / CHANGE.tar: `git archive <commit> > side.tar`.
set -u
parent=$1 change=$2 work=$3 out=$4 seed=$5 pairs=$6
shift 6
[ -n "$work" ] && [ "$work" != / ] || { echo "WORK must be a scratch directory"; exit 2; }
workloads=${*:-rmat16-g500 wdc14-longtail wdc12-longtail-process stream16-build-compressed serve14-zipf-reads serve14-mixed-updates weighted15-sssp-pr}
for pair in $(seq 1 "$pairs"); do
  for w in $workloads; do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
      if [ $side = parent ]; then tree=$parent; else tree=$change; fi
      rm -rf "$work" && mkdir -p "$work" && tar -x -C "$work" -f "$tree"
      line=$(cd "$work" && env -u REPRO_BACKEND -u REPRO_KERNELS -u REPRO_STORAGE -u REPRO_TRACE \
        python3 benchmarks/perf/run.py --workload $w --seed "$seed" --seconds 8 --trace 0 2>/dev/null | tail -1)
      echo "{\"pair\": $pair, \"seed\": $seed, \"workload\": \"$w\", \"side\": \"$side\", \"result\": $line}" >> "$out"
    done
  done
done
rm -rf "$work"
