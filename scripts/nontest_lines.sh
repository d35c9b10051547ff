#!/usr/bin/env bash
# Non-test line count of the engine, per crate and in total: each `.rs`
# file under crates/*/src counts its lines above its first `#[cfg(test)]`;
# crates/*/tests and crates/*/benches do not count.
#   bash scripts/nontest_lines.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { split(FILENAME, part, "/"); crate = part[2]; counting = 1 }
    /#\[cfg\(test\)\]/ { counting = 0 }
    counting { lines[crate]++ }
    END { for (c in lines) printf "%-8s %6d\n", c, lines[c] }' |
    sort | awk '{ print; total += $2 } END { printf "%-8s %6d\n", "total", total }'
