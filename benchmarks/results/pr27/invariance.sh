#!/bin/bash
# The quick suite on every run mode, each artifact's counters compared with
# benchmarks/baseline.json by the counter gate (exit 1 on drift, no flags).
# Run from the repository root; artifacts go to OUT_DIR (default: a temporary
# directory).  Usage: invariance.sh [OUT_DIR]
set -u
out=${1:-$(mktemp -d)}
declare -A modes=(
  [inline]=""
  [process]="--backend process"
  [thread]="--backend thread"
  [mmap]="--storage mmap"
  [compressed]="--storage compressed"
  [traced]="--trace $out/quick.trace.json"
  [baseline]="--baseline"
)
status=0
for mode in inline process thread mmap compressed traced baseline; do
  env -u REPRO_BACKEND -u REPRO_KERNELS -u REPRO_STORAGE -u REPRO_TRACE PYTHONPATH=src \
    python -m repro.cli bench run --quick --repeats 1 ${modes[$mode]} \
    --output "$out/quick-$mode.json" > /dev/null 2>&1 || { echo "$mode: bench run failed"; status=1; continue; }
  PYTHONPATH=src python -m repro.cli bench compare benchmarks/baseline.json "$out/quick-$mode.json" \
    | tail -1 | sed "s/^/$mode: /"
  [ "${PIPESTATUS[0]}" -eq 0 ] || status=1
done
exit $status
