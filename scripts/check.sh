#!/usr/bin/env bash
# Full verification: release build + tests + the smoke gates
# (scripts/smoke.sh), ASan+UBSan build + tests, and a TSan pass over the
# threaded suites.  Set ROFL_CHECK_FULL=1 to also run every bench binary at
# full length (slow).
set -euo pipefail
cd "$(dirname "$0")/.."

# Use whatever generator the existing build trees were configured with;
# default to the CMake default on fresh checkouts.
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j
scripts/smoke.sh

cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer"
cmake --build build-asan -j
ctest --test-dir build-asan --output-on-failure -j

# TSan leg: the suites that actually spin threads -- the UDP transport pump
# and meshes (test_net) and the sharded engine's workers (test_sharded) --
# must run clean under ThreadSanitizer.
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
cmake --build build-tsan --target rofl_tests -j
TSAN_OPTIONS=halt_on_error=1 build-tsan/tests/rofl_tests \
  --gtest_filter='PumpHeader.*:DedupWindow.*:Loopback.*:Udp.*:Mesh.*:SpscQueue.*:BalancedShardMap.*:ShardedSimulator.*:ShardScaleModel.*'

if [ "${ROFL_CHECK_FULL:-0}" = "1" ]; then
  # Every bench runs even after one fails, so a failing gate cannot hide the
  # benches that sort after it; the check still exits 1 if any failed.
  failed=()
  for b in build/bench/*; do
    if [ -f "$b" ] && [ -x "$b" ]; then
      "$b" || failed+=("$(basename "$b")")
    fi
  done
  if [ "${#failed[@]}" -gt 0 ]; then
    for name in "${failed[@]}"; do echo "bench failed: $name" >&2; done
    exit 1
  fi
fi
