#!/usr/bin/env bash
# One wire cursor: bytes become integers and floats only inside
# `sitra_dataspaces::codec`, so every decoder in the crates that speak
# a wire format reads through `codec::Rd` and its field-tagged error.
# Fails when `from_le_bytes` appears in non-test code (as
# `non-test-scan.sh` defines it) of any other file. The allow-list
# (`path  # why`, one line per file) holds the codec and the one file
# that turns bytes into a number without decoding anything.
set -euo pipefail
cd "$(dirname "$0")/.."

allowed=$(sort <<'ALLOW'
crates/dataspaces/src/codec.rs  # the cursor itself
crates/cluster/src/ring.rs  # hashes key bytes for ring placement
ALLOW
)

found=$(.github/non-test-scan.sh 'from_le_bytes' \
    crates/core/src crates/dataspaces/src crates/cluster/src | sort -u)

# `<` a file that decodes outside the codec, `>` an allowance with no
# `from_le_bytes` left.
if ! diff <(echo "$found") <(sed 's/ *#.*//' <<<"$allowed"); then
    echo "from_le_bytes in non-test code differs from the allow-list above" >&2
    exit 1
fi
