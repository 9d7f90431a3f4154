#!/usr/bin/env bash
# Non-test source lines: one line per crate (the lines of its `src`)
# and the total. Every `#[cfg(test)]` item is left out, from the
# attribute to the end of the item (its closing brace, or its `;`):
# unit-test modules and test-only helpers alike. Every other line
# counts, blank lines and comments included. Only `crates/*/src` is
# read, so integration tests, benches and `crates/ici-lint/tests/fixtures`
# never count.
#
#   scripts/loc.sh          per crate, then the total

set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    # Inside a skipped item, braces are counted on each line with its
    # string and char literals and its `//` comment removed; the item
    # ends when its braces close, or at a line ending in `;` before any
    # brace opened. Attributes between `#[cfg(test)]` and the item are
    # part of it.
    lines=$(find "$src" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { skipping = 0 }
        skipping {
            line = $0
            gsub(/"([^"\\]|\\.)*"/, "", line)
            gsub(/\047([^\047\\]|\\.)\047/, "", line)
            sub(/\/\/.*/, "", line)
            if (!opened && line ~ /^[ \t]*#\[/) next
            open_n = gsub(/\{/, "", line)
            depth += open_n - gsub(/\}/, "", line)
            if (open_n) opened = 1
            if (opened ? depth <= 0 : line ~ /;[ \t]*$/) skipping = 0
            next
        }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { skipping = 1; depth = 0; opened = 0; next }
        { n++ }
        END { print n + 0 }
    ')
    total=$((total + lines))
    printf '%-16s %6d\n' "$crate" "$lines"
done
printf '%-16s %6d\n' total "$total"
