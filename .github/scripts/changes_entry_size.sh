#!/usr/bin/env bash
# Lists the CHANGES.md lines that outgrow the cap on one entry.
#
# Each line of CHANGES.md is one change's entry or one FOUND/MENDED note.
# Every line after the first 51 that is longer than 4 096 bytes is
# printed as `CHANGES.md:LINE: BYTES bytes`; the first 51 lines, written
# before the cap (entries of 5.6-8.2 KB), are grandfathered. Prints
# nothing when every later line fits.
#
# Run from the repository root: .github/scripts/changes_entry_size.sh
set -euo pipefail

cap=4096
grandfathered=51
LC_ALL=C awk -v from="$grandfathered" -v cap="$cap" \
    'NR > from && length($0) > cap { printf "CHANGES.md:%d: %d bytes\n", NR, length($0) }' \
    CHANGES.md
