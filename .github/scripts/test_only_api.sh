#!/usr/bin/env bash
# Lists the public functions that only tests call ("public means called").
#
# A `pub fn` defined in `crates/*/src` or `src/`, before its file's first
# column-0 `#[cfg(test)]`, is listed when its name appears in no other
# Rust file under `crates`, `src`, `tests`, `examples` or `benchmark/src`,
# and nowhere in its own file's non-test part but its definition. Lines
# that are `//` comments are not read: a doc that names a function does
# not call it. Prints one `file: name` line per such function and
# nothing when there is none.
#
# Run from the repository root: .github/scripts/test_only_api.sh
set -euo pipefail

roots=(crates src tests examples benchmark/src)

# The code lines of a file before its first column-0 `#[cfg(test)]`.
non_test() {
    awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print }' "$1"
}

find crates/*/src src -name '*.rs' | sort | while read -r file; do
    non_test "$file" |
        sed -n 's/^[[:space:]]*pub fn \([A-Za-z_][A-Za-z0-9_]*\).*/\1/p' |
        sort -u |
        while read -r name; do
            others=$(grep -rw --include='*.rs' -e "$name" "${roots[@]}" |
                grep -v '^[^:]*:[[:space:]]*//' |
                cut -d: -f1 | sort -u | grep -vxF "$file" || true)
            if [ -n "$others" ]; then
                continue
            fi
            if [ "$(non_test "$file" | grep -ow -e "$name" | wc -l)" -gt 1 ]; then
                continue
            fi
            echo "$file: $name"
        done
done
