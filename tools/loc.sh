#!/usr/bin/env bash
# Non-test source lines per crate: for every `.rs` file under
# `crates/<name>/`, its lines up to and including its first
# `#[cfg(test)]` (all of them if it has none). Files named `tests.rs`
# and files under a `tests/` directory are test code and are skipped.
#
# Usage: tools/loc.sh [crate ...]   (default: every crate under crates/)
set -euo pipefail
cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
    set -- $(ls crates)
fi
total=0
for crate in "$@"; do
    n=0
    while IFS= read -r f; do
        lines=$(awk '{ n++ } /^[[:space:]]*#\[cfg\(test\)\]/ { exit } END { print n + 0 }' "$f")
        n=$((n + lines))
    done < <(find "crates/$crate" -name '*.rs' -not -path '*/target/*' \
        -not -path '*/tests/*' -not -name 'tests.rs' | sort)
    printf '%-14s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-14s %6d\n' total "$total"
