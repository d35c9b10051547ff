#!/usr/bin/env bash
# Build jagbench and the engine's worker binary from source, then run
# jagbench with the given arguments. This is BENCHMARK.json's `command`:
#   bash jagbench/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# and equally the front door for `run`, `compare` and `--smoke`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
# Without CARGO_TARGET_DIR cargo builds into jagbench/target.
bin_dir="${CARGO_TARGET_DIR:-$here/target}/release"
# The isolated designs spawn the engine's own `jaguar-worker`; it is found
# beside the jagbench executable.
cargo build --release --offline --quiet --manifest-path "$manifest" \
    -p jagbench --bin jagbench -p jaguar-udf --bin jaguar-worker
exec "$bin_dir/jagbench" "$@"
