#!/usr/bin/env bash
# Builds the benchmark once, runs the four workloads untraced and then traced
# for every seed, and merges the result lines into one JSON file that
# `hydra-benchmark compare` reads. Run length is the benchmark's own
# (`run_seconds` of `hydra-benchmark list --json`), never the caller's.
#
#   benchmark/run.sh [result.json]        default: benchmark/out/result.json
#   SEEDS="1 2 3 4 5" benchmark/run.sh    several runs per workload (default: 7)
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
out="${1:-$here/out/result.json}"
seeds="${SEEDS:-7}"
workloads="exact_serial exact_parallel serve_zipf serve_scatter"

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/hydra-benchmark"
seconds="$("$bin" list --json | sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p')"

mkdir -p "$(dirname "$out")"
runs=()
for trace in 0 1; do
    for workload in $workloads; do
        for seed in $seeds; do
            echo "== $workload seed=$seed trace=$trace" >&2
            log="$("$bin" --workload "$workload" --seed "$seed" --trace "$trace")"
            echo "$log" | sed '$d' >&2
            result="$(echo "$log" | tail -n 1)"
            runs+=("{\"workload\": \"$workload\", \"seed\": $seed, \"trace\": $trace, \"result\": $result}")
        done
    done
done

{
    echo "{\"host_cpus\": $(nproc), \"seconds\": $seconds, \"runs\": ["
    last=$((${#runs[@]} - 1))
    for i in "${!runs[@]}"; do
        if [ "$i" -lt "$last" ]; then
            echo "${runs[$i]},"
        else
            echo "${runs[$i]}"
        fi
    done
    echo "]}"
} > "$out"
echo "wrote $out" >&2
