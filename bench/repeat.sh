#!/usr/bin/env bash
# Run every workload once per seed and collect the results in one file,
# ready for `--compare`:
#
#   bench/repeat.sh bench/out/a.jsonl            # seeds 1..10
#   bench/repeat.sh bench/out/b.jsonl 11 20
#   cargo run --release --manifest-path bench/Cargo.toml -- --compare bench/out/a.jsonl bench/out/b.jsonl
#
# Run from the repository root. SECONDS_PER_RUN defaults to the
# `run_seconds` of BENCHMARK.json.
set -euo pipefail
out=${1:?usage: bench/repeat.sh <results.jsonl> [first-seed] [last-seed]}
first=${2:-1}
last=${3:-$((first + 9))}
seconds=${SECONDS_PER_RUN:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
for workload in concat-archive delta-chain provenance-replay lake-service; do
    for seed in $(seq "$first" "$last"); do
        cargo run --release --quiet --offline --manifest-path bench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" | tail -n 1 >/dev/null
    done
done
