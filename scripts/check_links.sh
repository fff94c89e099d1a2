#!/usr/bin/env bash
# Documentation link check for README.md, DESIGN.md, ROADMAP.md and
# docs/*.md:
#
# - every relative markdown link must resolve to an existing file or
#   directory (anchors are stripped; http(s)/mailto links are out of
#   scope for the offline CI);
# - every code anchor written as `Name` — `path:line` must cite an
#   existing line of an existing file, and that line must contain one of
#   the name's `::` segments as a whole word (so `MergePartner::NearestQi`
#   may cite the enum's line).
#
# Usage: scripts/check_links.sh   (from the repository root)
set -euo pipefail

fail=0
bt=$'\x60' # a backtick
anchor_re="${bt}[A-Za-z_][A-Za-z0-9_:]*${bt} — ${bt}[^${bt} ]*:[0-9][0-9]*${bt}"
for doc in README.md DESIGN.md ROADMAP.md docs/*.md; do
    [ -f "$doc" ] || continue
    dir=$(dirname "$doc")
    # Extract inline markdown link targets: [text](target)
    while IFS= read -r target; do
        case "$target" in
        http://* | https://* | mailto:*) continue ;;
        esac
        path="${target%%#*}" # strip in-page anchors
        [ -n "$path" ] || continue # pure-anchor link into the same file
        if [ ! -e "$dir/$path" ]; then
            echo "BROKEN: $doc -> $target"
            fail=1
        fi
    done < <(grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//')

    # Code anchors, cited relative to the repository root.
    while IFS= read -r anchor; do
        rest=${anchor#"$bt"}
        name=${rest%%"$bt"*}
        cite=${anchor##* "$bt"}
        cite=${cite%"$bt"}
        file=${cite%:*}
        line=${cite##*:}
        if [ ! -f "$file" ]; then
            echo "STALE: $doc -> $name cites $cite (no such file)"
            fail=1
            continue
        fi
        text=$(sed -n "${line}p" "$file")
        found=0
        read -ra segments <<<"${name//::/ }"
        for segment in "${segments[@]}"; do
            if grep -qwF -- "$segment" <<<"$text"; then
                found=1
            fi
        done
        if [ "$found" -eq 0 ]; then
            echo "STALE: $doc -> $name cites $cite: ${text:-<blank or missing line>}"
            fail=1
        fi
    done < <(grep -o "$anchor_re" "$doc" || true)
done

if [ "$fail" -ne 0 ]; then
    echo "documentation link check failed"
    exit 1
fi
echo "documentation link check passed"
