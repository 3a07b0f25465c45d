#!/usr/bin/env bash
# Usage: non-test-scan.sh PATTERN DIR...
#
# Print the path of every `*.rs` file under DIR... once per line of its
# non-test code that matches the awk regex PATTERN. A file's test code
# starts at `#[cfg(test)]` followed by `mod tests` (a lone
# `#[cfg(test)]` item earlier in the file does not end the scan);
# `tests.rs` files are test code throughout. The gates that keep a
# construct out of non-test code share this rule.
set -euo pipefail
pattern=$1
shift
find "$@" -name '*.rs' ! -name 'tests.rs' | sort | while read -r f; do
    awk -v f="$f" -v pat="$pattern" '
        cfg && /^[[:space:]]*mod tests/ { exit }
        { cfg = /#\[cfg\(test\)\]/ }
        $0 ~ pat { print f }' "$f"
done
