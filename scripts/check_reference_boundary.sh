#!/usr/bin/env bash
# Keeps the graph-walk oracle, `protoobf_core::reference`, out of
# production code. The module is the executable specification that the
# compiled codec plan is differentially tested against; only the fuzzer
# and tests may run it. Fails when a `reference::` path, or a `use` of the
# module, appears
#   * in crates/core/src outside reference.rs, fuzz.rs and #[cfg(test)]
#     items;
#   * anywhere in crates/{transport,protocols,codegen,spec,pre}/src or src/.
#
# Usage: bash scripts/check_reference_boundary.sh [ROOT]
# ROOT defaults to the repository this script sits in.
set -euo pipefail

cd "${1:-"$(dirname "$0")/.."}"

# Prints FILE:LINE: TEXT for every use and exits 1 if there was one. With
# exempt=1 the lines of `#[cfg(test)]` items are skipped: an item ends at
# the first line that starts with `}` at the attribute's indentation, or
# on its own first line when that line ends in `;`, `,` or `}`.
scan() {
    local exempt=$1
    shift
    awk -v exempt="$exempt" '
        FNR == 1 { skip = 0; pending = 0 }
        skip {
            if (index($0, indent "}") == 1) skip = 0
            next
        }
        pending {
            if ($0 ~ /^[ \t]*#\[/) next
            pending = 0
            if ($0 !~ /[;,}][ \t]*$/) skip = 1
            next
        }
        exempt && /^[ \t]*#\[cfg\(test\)\][ \t]*$/ {
            match($0, /^[ \t]*/)
            indent = substr($0, 1, RLENGTH)
            pending = 1
            next
        }
        /reference::/ || /^[ \t]*(pub(\([a-z]+\))? )?use .*[^A-Za-z0-9_]reference([^A-Za-z0-9_]|$)/ {
            print FILENAME ":" FNR ": " $0
            found = 1
        }
        END { exit found }
    ' "$@"
}

status=0
mapfile -t core < <(find crates/core/src -name '*.rs' \
    ! -path crates/core/src/reference.rs ! -path crates/core/src/fuzz.rs | sort)
scan 1 "${core[@]}" || status=1
mapfile -t others < <(find crates/transport/src crates/protocols/src crates/codegen/src \
    crates/spec/src crates/pre/src src -name '*.rs' | sort)
scan 0 "${others[@]}" || status=1

if [ "$status" -ne 0 ]; then
    echo "error: production code uses the reference oracle (core::reference)" >&2
else
    echo "reference boundary ok: ${#core[@]} core and ${#others[@]} other source files"
fi
exit "$status"
