#!/usr/bin/env bash
# Non-blank, non-test source lines per crate and in total.
#
#   scripts/loc.sh          # this checkout
#   scripts/loc.sh BASE     # BASE, this checkout and the delta, per crate
#
# BASE is another checkout's directory or a git revision of this
# repository; a revision is extracted with `git archive` into a
# temporary directory that is removed on exit.
#
# Counts every `.rs` file under `crates/*/src`. Each file is cut at its
# first `#[cfg(test)]` line, so an in-file unit-test module does not
# count; `tests/`, `benches/`, examples, `vendor/` and `perfbench/` are
# outside the count. Blank (whitespace-only) lines do not count;
# comments and doc comments do.
set -euo pipefail
here="$(cd "$(dirname "$0")/.." && pwd)"

# Print "crate count" lines, then "total count", for the checkout at $1.
count() {
    local root="$1" total=0 dir crate n lines file
    for dir in "$root"/crates/*/; do
        crate="$(basename "$dir")"
        [[ -d "$dir/src" ]] || continue
        n=0
        while IFS= read -r -d '' file; do
            lines=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } NF { n++ } END { print n + 0 }' "$file")
            n=$((n + lines))
        done < <(find "$dir/src" -name '*.rs' -print0)
        echo "$crate $n"
        total=$((total + n))
    done
    echo "total $total"
}

if [[ $# -eq 0 ]]; then
    count "$here" | while read -r crate n; do printf '%-10s %6d\n' "$crate" "$n"; done
    exit 0
fi

base="$1"
if [[ ! -d "$base" ]]; then
    rev="$base"
    git -C "$here" rev-parse --verify --quiet "$rev^{commit}" >/dev/null ||
        { echo "loc.sh: $rev is neither a directory nor a git revision" >&2; exit 2; }
    base="$(mktemp -d)"
    trap 'rm -rf "$base"' EXIT
    git -C "$here" archive "$rev" crates | tar -x -C "$base"
fi

printf '%-10s %6s %6s %6s\n' crate base this delta
# Crates present on only one side count 0 there; `total` prints last.
join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(count "$base" | sort) <(count "$here" | sort) |
    awk '$1 == "total" { t = $0; next } { print } END { print t }' |
    while read -r crate a b; do printf '%-10s %6d %6d %+6d\n' "$crate" "$a" "$b" $((b - a)); done
