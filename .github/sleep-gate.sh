#!/usr/bin/env bash
# ROADMAP item 3: no `thread::sleep` in non-test code of the crates on
# the task path, of the transport under them and of the staging service
# (non-test code as `non-test-scan.sh` defines it). The allow-list
# (`path  # which sleep`, one line per sleep) holds only waits with
# nothing to wait on: a wait is a timed wait on whatever ends it.
set -euo pipefail
cd "$(dirname "$0")/.."

allowed=$(sort <<'ALLOW'
crates/net/src/lib.rs  # connect_retry: the back-off between dials
crates/staged/src/main.rs  # the exit nap: replies to the closing client leave before exit
ALLOW
)

found=$(.github/non-test-scan.sh 'thread::sleep' \
    crates/core/src crates/dataspaces/src crates/cluster/src crates/net/src \
    crates/dart/src crates/staged/src)

# `<` a sleep that is not allowed, `>` an allowance with no sleep left.
if ! diff <(echo "$found") <(sed 's/ *#.*//' <<<"$allowed"); then
    echo "thread::sleep in non-test code differs from the allow-list above" >&2
    exit 1
fi
