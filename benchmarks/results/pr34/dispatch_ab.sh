#!/bin/bash
# dispatch_probe.py in two checkouts, alternating which runs first, ROUNDS
# times; each output line is prefixed with its round and side.
# Usage: dispatch_ab.sh PARENT_CHECKOUT CHANGE_CHECKOUT ROUNDS
set -u
parent=$1 change=$2 rounds=$3
probe=$(cd "$(dirname "$0")" && pwd)/dispatch_probe.py
for round in $(seq 1 "$rounds"); do
  if [ $((round % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    if [ $side = parent ]; then dir=$parent; else dir=$change; fi
    (cd "$dir" && env -u REPRO_BACKEND -u REPRO_STORAGE -u REPRO_TRACE PYTHONPATH=src \
      python "$probe") | sed "s/^/$round $side: /"
  done
done
