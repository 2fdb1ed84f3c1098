#!/usr/bin/env bash
# Runs ftqc-bench's timed scenarios (quick preset) as 10 alternating
# parent/change pairs, for `ftqc-bench compare OUT`:
#
#   .github/perf-pairs.sh PARENT_BIN CHANGE_BIN OUT
#
# writes OUT/pair-<i>/{parent,change}/BENCH_<scenario>.json, i = 1..10.
# Odd pairs run the parent first and even pairs the change first: a
# fixed order can read a one-sided difference that vanishes when the
# order flips (DESIGN.md, "The CI gate"). The scenarios are the
# parent's, except fusion-accuracy, whose rows are error counts, not
# times.
set -euo pipefail
if [ $# -ne 3 ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN OUT" >&2
  exit 2
fi
parent=$1 change=$2 out=$3
scenarios=$("$parent" list | grep -vx fusion-accuracy)
for i in $(seq 1 10); do
  if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    # ${!side} is $parent or $change; $scenarios splits into one word each.
    # shellcheck disable=SC2086
    "${!side}" run $scenarios --preset quick --out "$out/pair-$i/$side" > /dev/null
  done
done
