#!/usr/bin/env bash
# Non-test source lines per crate and in total, under one rule:
#
# - every `*.rs` under crates/*/src, src/ and vendor/*/src counts, up to
#   the `#[cfg(test)]` line that opens its `mod tests`;
# - `#[cfg(test)]` + `mod reference;` declarations and `reference.rs`
#   files (test-only reference implementations) do not count;
# - every other line counts, blank lines and comments included.
#
# Usage: scripts/loc.sh   (from the repository root)
set -euo pipefail

# Prints the non-test line count of one file.
count_file() {
    awk '
        pending {
            pending = 0
            if ($0 ~ /^mod tests[[:space:]]*\{/) exit
            if ($0 ~ /^mod reference;/) next
            n++ # the held #[cfg(test)] line opened something else
        }
        /^#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
        { n++ }
        END { print n + pending }
    ' "$1"
}

# The crate a source file belongs to: its directory under crates/, its
# vendored package, or the umbrella `tclose` crate for src/.
crate_of() {
    case "$1" in
    crates/*)
        local rest=${1#crates/}
        echo "${rest%%/*}"
        ;;
    vendor/*) echo "${1%%/src/*}" ;;
    *) echo tclose ;;
    esac
}

find crates/*/src src vendor/*/src -name '*.rs' ! -name reference.rs | sort |
    while IFS= read -r file; do
        printf '%s %s\n' "$(crate_of "$file")" "$(count_file "$file")"
    done |
    awk '
        { lines[$1] += $2; total += $2 }
        END {
            for (c in lines) printf "%-14s %7d\n", c, lines[c] | "sort"
            close("sort")
            printf "%-14s %7d\n", "total", total
        }
    '
