#!/bin/bash
# The quick suite on every run mode, twice: with the compiled kernels as this
# host builds them, and with no C compiler on PATH and a fresh HOME, so every
# kernel runs its NumPy statement.  Each artifact's counters are compared with
# benchmarks/baseline.json by the counter gate (exit 1 on drift), and its
# host.native_kernels says which statement ran.  Run from the repository root;
# artifacts go to OUT_DIR (default: a temporary directory).
# Usage: invariance.sh [OUT_DIR]
set -u
out=${1:-$(mktemp -d)}
mkdir -p "$out"
bare=$(mktemp -d)
ln -s "$(python -c 'import sys; print(sys.executable)')" "$bare/python"
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
for kernels in native numpy; do
  if [ $kernels = numpy ]; then host="PATH=$bare HOME=$(mktemp -d)"; else host=""; fi
  for mode in inline process thread mmap compressed traced baseline; do
    artifact="$out/quick-$kernels-$mode.json"
    env -u REPRO_BACKEND -u REPRO_KERNELS -u REPRO_STORAGE -u REPRO_TRACE PYTHONPATH=src $host \
      python -m repro.cli bench run --quick --repeats 1 ${modes[$mode]} \
      --output "$artifact" > /dev/null 2>&1 || { echo "$kernels $mode: bench run failed"; status=1; continue; }
    ran=$(python -c "import json, sys; print(json.load(open(sys.argv[1]))['host']['native_kernels'])" "$artifact")
    PYTHONPATH=src python -m repro.cli bench compare benchmarks/baseline.json "$artifact" \
      | tail -1 | sed "s/^/$kernels $mode (native_kernels: $ran): /"
    [ "${PIPESTATUS[0]}" -eq 0 ] || status=1
  done
done
exit $status
