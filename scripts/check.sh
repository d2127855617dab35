#!/usr/bin/env bash
# Sanitizer CI gate: builds the tier-1 suite under each sanitizer mode and
# runs ctest, plus an explicit pass of the persistence corruption/fault
# sweeps under ASan (the adversarial decode paths are exactly where memory
# bugs would hide).
#
#   scripts/check.sh                 # address + undefined
#   scripts/check.sh --thread        # also run the TSan build
#   MODES="undefined" scripts/check.sh
#
# Each mode builds into build-<mode>/ so incremental reruns are cheap.

set -euo pipefail
cd "$(dirname "$0")/.."

MODES="${MODES:-address undefined}"
if [[ "${1:-}" == "--thread" ]]; then
  MODES="$MODES thread"
fi

JOBS="$(nproc 2>/dev/null || echo 2)"

for mode in $MODES; do
  dir="build-$mode"
  echo "=== [$mode] configure + build ($dir) ==="
  cmake -B "$dir" -S . -DXSEQ_SANITIZE="$mode" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  echo "=== [$mode] ctest ==="
  (cd "$dir" && ctest --output-on-failure -j "$JOBS")
done

if [[ " $MODES " == *" address "* ]]; then
  echo "=== [address] corruption + fault sweeps (explicit) ==="
  ./build-address/tests/xseq_tests \
    --gtest_filter='CorruptionSweep.*:FaultSweep.*:Format.*'

  echo "=== [address] build + verify a small image ==="
  # verify re-reads every section, reports packed vs logical link bytes
  # and the value index, then runs the full decode, all under ASan.
  img="build-address/verify_xmark300.idx"
  ./build-address/examples/example_xseq_tool build --gen=xmark --n=300 \
    --out="$img"
  ./build-address/examples/example_xseq_tool verify "$img"
fi

echo "=== serve smoke (daemon + client over loopback TCP) ==="
scripts/serve_smoke.sh

echo "=== bench smoke (counter guards, plain build) ==="
scripts/bench_smoke.sh

echo "check.sh: all modes passed"
