#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Cargo's output goes to stderr so that the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml \
  --target-dir "$target" >&2
exec "$target/release/wikistale-perfbench" --work-dir "$target/perfbench" "$@"
