#!/usr/bin/env bash
# Schema and smoke check of the repo benchmark: both passes at toy sizes
# (32^3 cube, 8 Ki-element chunks, 1 s windows, 100-op rule waived), each
# followed by the check that the workload and metric names it printed are
# exactly those the root BENCHMARK.json declares. Well under 30 s once
# the package is built. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
run() { cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }
run --smoke > /dev/null
run --smoke --trace > /dev/null
echo "benchmark smoke: ok"
