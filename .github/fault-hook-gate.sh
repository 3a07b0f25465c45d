#!/usr/bin/env bash
# Fault injection belongs to the harness: a test reaches a fault through
# `sitra_net`'s injector seam, never through a knob or hook of the
# product API. Fails when `fault_drop` or `drop_connection` appears in
# non-test code (as `non-test-scan.sh` defines it) of any crate source,
# or when the testkit arms an injector anywhere but its one scenario
# runner (`crates/testkit/src/scenario.rs`).
set -euo pipefail
cd "$(dirname "$0")/.."

found=$(.github/non-test-scan.sh 'fault_drop|drop_connection' crates/*/src | sort -u)

if [ -n "$found" ]; then
    echo "fault hooks in non-test code (inject through sitra_net's FaultInjector):" >&2
    echo "$found" >&2
    exit 1
fi

armed=$(.github/non-test-scan.sh 'install_fault_injector' crates/testkit/src |
    grep -vx 'crates/testkit/src/scenario.rs' | sort -u || true)

if [ -n "$armed" ]; then
    echo "the testkit arms its injector only in scenario.rs's runner:" >&2
    echo "$armed" >&2
    exit 1
fi
