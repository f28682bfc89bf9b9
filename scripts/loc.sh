#!/usr/bin/env bash
# Non-blank, non-test source lines per crate and in total.
#
#   scripts/loc.sh          # this checkout
#   scripts/loc.sh DIR      # another checkout (e.g. a `git archive` of a parent)
#
# Counts every `.rs` file under `crates/*/src`. Each file is cut at its
# first `#[cfg(test)]` line, so an in-file unit-test module does not
# count; `tests/`, `benches/`, examples, `vendor/` and `perfbench/` are
# outside the count. Blank (whitespace-only) lines do not count;
# comments and doc comments do.
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

total=0
for dir in crates/*/; do
    crate="$(basename "$dir")"
    [[ -d "$dir/src" ]] || continue
    n=0
    while IFS= read -r -d '' file; do
        lines=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } NF { n++ } END { print n + 0 }' "$file")
        n=$((n + lines))
    done < <(find "$dir/src" -name '*.rs' -print0)
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
