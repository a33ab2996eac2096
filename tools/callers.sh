#!/usr/bin/env bash
# The caller audit: every `pub` item declared in `crates/` (the vendored
# shims under `crates/shim/` excluded) must have a use outside its own
# crate's tests, or a line in the allowlist below saying why it stays.
#
# A use is a mention of the item's name in non-test code: the library
# sources of every crate (each file up to its first `#[cfg(test)]`,
# `tests.rs` files and `tests/` directories skipped, as `tools/loc.sh`
# counts them), plus the workspace's `tests/`, `examples/`, `src/` and
# `benchmark/src/`. A function is used where a call or a path names it
# (a bare word of its name is a field or a local); a type or constant
# wherever its name appears. Comment lines are not uses, and neither is
# the item's own declaration or an inherent `impl` header naming it.
# The match is by name, so an item whose name something else also bears
# is never flagged: the audit is a lower bound on what nothing calls.
#
# Usage: tools/callers.sh           flagged items not in the allowlist;
#                                   exits 1 if there is any
#        tools/callers.sh --table   every pub item with its use count
set -euo pipefail
cd "$(dirname "$0")/.."

# crate name, one line of reason: kept although nothing outside the
# crate's own tests calls it.
ALLOW='
core pending_reads  the unit tests of every protocol crate count parked reads with it
core restart        Script: crash and restart, for the unit tests of every protocol crate
core applied        Script: what a replica applied, for the unit tests of every protocol crate
core ApplyOnly      a state machine that cannot snapshot, for the protocol crates recovery tests
'

non_test() { # file → its non-test, non-comment lines, tagged "<where>\t"
    awk -v tag="$1" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        { print tag "\t" $0 }' "$2"
}

{
    for crate in $(ls crates | grep -v '^shim$'); do
        find "crates/$crate" -name '*.rs' -not -path '*/target/*' \
            -not -path '*/tests/*' -not -name 'tests.rs' | sort |
            while IFS= read -r f; do non_test "$crate" "$f"; done
    done
    find tests examples src benchmark/src -name '*.rs' | sort |
        while IFS= read -r f; do non_test - "$f"; done
} | awk -F'\t' -v mode="${1:-}" -v allow="$ALLOW" '
    BEGIN {
        n = split(allow, lines, "\n")
        for (i = 1; i <= n; i++) {
            split(lines[i], w, " ")
            if (w[2] != "") allowed[w[1] " " w[2]] = 1
        }
        decl = "^[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+)*" \
               "(fn|struct|enum|trait|type|const|static|union|mod)[[:space:]]+"
    }
    {
        line = substr($0, length($1) + 2)
        own = ""
        if ($1 != "-" && match(line, decl)) {
            kind = substr(line, RSTART, RLENGTH)
            rest = substr(line, RSTART + RLENGTH)
            match(rest, /^[A-Za-z_][A-Za-z0-9_]*/)
            own = substr(rest, 1, RLENGTH)
            items[++count] = $1 " " own
            is_fn[count] = kind ~ /fn[[:space:]]+$/
        }
        if (line ~ /^[[:space:]]*impl[[:space:]<]/) {
            # An inherent impl names its type, a trait impl its trait
            # (a use) and then its type (not one).
            if (line ~ / for /) sub(/ for .*/, "", line); else line = ""
        }
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            word = substr(line, RSTART, RLENGTH)
            before = substr(line, RSTART - 2 > 0 ? RSTART - 2 : 1, RSTART > 2 ? 2 : RSTART - 1)
            line = substr(line, RSTART + RLENGTH)
            if (word == own) { own = ""; continue }
            uses[word]++
            # A function is used where it is called or named by path; a
            # bare word of the same name is a field or a local.
            if (line ~ /^(\(|::<)/ || before == "::") calls[word]++
        }
    }
    END {
        bad = 0
        for (i = 1; i <= count; i++) {
            split(items[i], w, " ")
            u = is_fn[i] ? calls[w[2]] + 0 : uses[w[2]] + 0
            if (mode == "--table") { printf "%-14s %-40s %d\n", w[1], w[2], u; continue }
            if (u > 0 || (items[i] in allowed) || seen[items[i]]++) continue
            printf "%s %s\n", w[1], w[2]
            bad = 1
        }
        exit bad
    }'
