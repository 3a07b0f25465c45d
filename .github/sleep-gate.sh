#!/usr/bin/env bash
# ROADMAP item 3: no `thread::sleep` in non-test code of the crates on
# the task path. Everything up to a file's first `#[cfg(test)]` counts
# as non-test code; `tests.rs` files are test code throughout. The
# allow-list (`path  # which sleep`, one line per sleep) has shrunk to
# nothing and stays that way: a wait is a timed wait on whatever ends
# it.
set -euo pipefail
cd "$(dirname "$0")/.."

allowed=$(sort <<'ALLOW'
ALLOW
)

found=$(find crates/core/src crates/dataspaces/src crates/cluster/src \
    -name '*.rs' ! -name 'tests.rs' | sort | while read -r f; do
    awk -v f="$f" '/#\[cfg\(test\)\]/ { exit } /thread::sleep/ { print f }' "$f"
done)

# `<` a sleep that is not allowed, `>` an allowance with no sleep left.
if ! diff <(echo "$found") <(sed 's/ *#.*//' <<<"$allowed"); then
    echo "thread::sleep in non-test code differs from the allow-list above" >&2
    exit 1
fi
