#!/usr/bin/env bash
# Non-blank, non-test source lines per crate and in total, with and
# without comment lines.
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
# outside the count. Blank (whitespace-only) lines do not count. Two
# counts are printed: `lines` counts comments and doc comments, `code`
# leaves out every line whose first non-blank characters are `//`
# (`//`, `///` and `//!` comments), so deleting a comment shrinks
# `lines` but not `code`.
set -euo pipefail
here="$(cd "$(dirname "$0")/.." && pwd)"

# Print "crate lines code" lines, then "total lines code", for the
# checkout at $1.
count() {
    local root="$1" total=0 total_code=0 dir crate n c counts file
    for dir in "$root"/crates/*/; do
        crate="$(basename "$dir")"
        [[ -d "$dir/src" ]] || continue
        n=0
        c=0
        while IFS= read -r -d '' file; do
            counts=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
                NF { n++; if ($0 !~ /^[[:space:]]*\/\//) c++ }
                END { print n + 0, c + 0 }' "$file")
            n=$((n + ${counts% *}))
            c=$((c + ${counts#* }))
        done < <(find "$dir/src" -name '*.rs' -print0)
        echo "$crate $n $c"
        total=$((total + n))
        total_code=$((total_code + c))
    done
    echo "total $total $total_code"
}

if [[ $# -eq 0 ]]; then
    printf '%-10s %6s %6s\n' crate lines code
    count "$here" | while read -r crate n c; do printf '%-10s %6d %6d\n' "$crate" "$n" "$c"; done
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

printf '%-10s %6s %6s %6s   %6s %6s %6s\n' '' lines '' '' code '' ''
printf '%-10s %6s %6s %6s   %6s %6s %6s\n' crate base this delta base this delta
# Crates present on only one side count 0 there; `total` prints last.
join -a 1 -a 2 -e 0 -o 0,1.2,1.3,2.2,2.3 <(count "$base" | sort) <(count "$here" | sort) |
    awk '$1 == "total" { t = $0; next } { print } END { print t }' |
    while read -r crate a ac b bc; do
        printf '%-10s %6d %6d %+6d   %6d %6d %+6d\n' "$crate" "$a" "$b" $((b - a)) "$ac" "$bc" $((bc - ac))
    done
