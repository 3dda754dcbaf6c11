#!/usr/bin/env bash
# Runs N alternating pairs of the benchmark's single-workload run in two
# checkouts, a parent and a change, and appends each run's result line,
# tagged with its workload and seed, to PREFIX-parent.jsonl and
# PREFIX-change.jsonl: the two sets `bash benchmark/run.sh --compare A B`
# reads per workload.
#
#   bash bench/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED N PREFIX
#
# e.g. bash bench/pairs.sh ../parent . fine 1 10 bench/PR48
#
# Odd pairs run the parent first and even pairs the change, so a drift in
# the machine's speed weighs on both sides alike. A run that exits non-zero
# (a failed correctness check) is still recorded, and the script exits 1
# once every run is done.
set -euo pipefail
if [ $# -ne 6 ]; then
  echo "usage: bash bench/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED N PREFIX" >&2
  exit 2
fi
parent=$1 change=$2 workload=$3 seed=$4 n=$5 prefix=$6
status=0

# run SIDE DIR: one run in checkout DIR, appended to PREFIX-SIDE.jsonl.
run() {
  local out line
  out=$(bash "$2/benchmark/run.sh" --workload "$workload" --seed "$seed") || status=1
  line=$(printf '%s\n' "$out" | tail -n 1)
  case $line in
    '{'*) ;;
    *) echo "pairs.sh: the $1 run printed no result line" >&2; exit 1 ;;
  esac
  printf '{"workload": "%s", "seed": %s, %s\n' "$workload" "$seed" "${line#\{}" >> "$prefix-$1.jsonl"
}

for i in $(seq 1 "$n"); do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent"
    run change "$change"
  else
    run change "$change"
    run parent "$parent"
  fi
  echo "pairs.sh: pair $i of $n done ($workload, seed $seed)" >&2
done
exit $status
