#!/bin/sh
# Run every workload of BENCHMARK.json once, from the root of a checkout.
# Usage: sh perfbench/all.sh [SEED] [SECONDS] [TRACE]
# Prints each workload's result line, prefixed with the workload name.
set -e
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
    result=$(python3 perfbench/run.py --workload "$w" --seed "${1:-0}" --seconds "${2:-35}" --trace "${3:-0}" | tail -n 1)
    echo "$w $result"
done
