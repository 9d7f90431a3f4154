#!/usr/bin/env bash
# Non-test source lines: one line per crate (the lines of its `src`)
# and the total. A file counts up to its `#[cfg(test)]` `mod tests`, so
# unit tests are left out; every other line counts, blank lines and
# comments included. Only `crates/*/src` is read, so integration tests,
# benches and `crates/ici-lint/tests/fixtures` never count.
#
#   scripts/loc.sh          per crate, then the total

set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    # A `#[cfg(test)]` line is held until the next line shows whether it
    # opens `mod tests` (the file stops counting) or something else.
    lines=$(find "$src" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { counting = 1; held = 0 }
        !counting { next }
        held {
            held = 0
            if ($0 ~ /^mod tests/) { counting = 0; next }
            n++
        }
        /^#\[cfg\(test\)\]$/ { held = 1; next }
        { n++ }
        END { print n + 0 }
    ')
    total=$((total + lines))
    printf '%-16s %6d\n' "$crate" "$lines"
done
printf '%-16s %6d\n' total "$total"
