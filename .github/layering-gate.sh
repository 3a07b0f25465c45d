#!/usr/bin/env bash
# The staging service is a DataSpaces service that knows nothing of the
# analyses: `sitra-staged` links only the staging layers, and the space
# links no renderer (steering is served by the driver in `sitra-core`).
# Fails when a package's normal dependency closure reaches a crate on
# its deny list.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
# deny PACKAGE CRATE...: PACKAGE's closure must name none of CRATE...
deny() {
    local pkg=$1 closure crate
    shift
    closure=$(cargo tree -e normal --prefix none -p "$pkg" | awk '{ print $1 }' | sort -u)
    for crate in "$@"; do
        if grep -qx "$crate" <<<"$closure"; then
            echo "$pkg reaches $crate" >&2
            status=1
        fi
    done
}

deny sitra-staged sitra-testkit sitra-core sitra-viz proptest
deny sitra-dataspaces sitra-viz
exit $status
