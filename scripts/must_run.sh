#!/usr/bin/env bash
# Run a `cargo test` command and fail unless it ran at least MIN tests in
# all: a test filter that matches nothing exits 0 by itself, so a renamed
# or moved test would otherwise stop running without a sound.
#   bash scripts/must_run.sh MIN cargo test -q --release -p CRATE -- NAME...
set -euo pipefail
min=$1
shift
out=$(mktemp)
trap 'rm -f "$out"' EXIT
"$@" 2>&1 | tee "$out"
ran=$(awk '/^running [0-9]+ tests?$/ { n += $2 } END { print n + 0 }' "$out")
if [ "$ran" -lt "$min" ]; then
    echo "must_run: $ran tests ran, at least $min expected: $*" >&2
    exit 1
fi
