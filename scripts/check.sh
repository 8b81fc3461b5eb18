#!/usr/bin/env bash
# Tier-1 check: configure + build + full ctest, then a ThreadSanitizer pass
# over the concurrency-sensitive suites (support + icilk + conc +
# telemetry, plus the RealProxy tests of apps), then an AddressSanitizer
# pass over the same (pooled fiber stacks poison their free lists — ASan
# is what proves no recycled stack is touched while free-listed). Run from
# anywhere; trees land in <repo>/build, <repo>/build-tsan, and
# <repo>/build-asan.
set -euo pipefail

REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== tier-1: build + ctest =="
cmake -B "$REPO/build" -S "$REPO" >/dev/null
cmake --build "$REPO/build" -j "$JOBS"
ctest --test-dir "$REPO/build" --output-on-failure -j "$JOBS"

echo
echo "== tsan: support + icilk + conc + telemetry suites, RealProxy tests =="
cmake -B "$REPO/build-tsan" -S "$REPO" -DREPRO_SANITIZE=thread >/dev/null
cmake --build "$REPO/build-tsan" -j "$JOBS" \
  --target support_tests icilk_tests conc_tests telemetry_tests apps_tests
# halt_on_error: a single data race fails the check rather than scrolling by.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"
# Latency-histogram shards recorded while a reader merges them and reads
# windows: the pattern every runtime latency reader relies on.
"$REPO/build-tsan/tests/support_tests"
"$REPO/build-tsan/tests/conc_tests"
"$REPO/build-tsan/tests/icilk_tests"
# The telemetry suite scrapes a live job-server run over HTTP: exactly the
# scheduler-vs-exporter concurrency a race detector should sweep.
"$REPO/build-tsan/tests/telemetry_tests"
# The proxy over real sockets: workers issue fd syscalls and complete
# futures inline while the reactor loop re-drives parked ops, and the
# health watcher samples the admission controller until teardown.
"$REPO/build-tsan/tests/apps_tests" --gtest_filter='RealProxy*'

echo
echo "== asan: support + icilk + conc + telemetry suites, RealProxy tests =="
cmake -B "$REPO/build-asan" -S "$REPO" -DREPRO_SANITIZE=address >/dev/null
cmake --build "$REPO/build-asan" -j "$JOBS" \
  --target support_tests icilk_tests conc_tests telemetry_tests apps_tests
# The fiber churn here runs tasks on recycled, ASan-poisoned-while-free
# stacks; any dangling pointer into a free-listed stack fails the check.
export ASAN_OPTIONS="halt_on_error=1 detect_stack_use_after_return=0 ${ASAN_OPTIONS:-}"
"$REPO/build-asan/tests/support_tests"
"$REPO/build-asan/tests/conc_tests"
"$REPO/build-asan/tests/icilk_tests"
# Overload scrape under ASan: the admission controller's timer-thread
# sweeps and controller-thread dispatch churn through heap-allocated
# queue entries while HTTP scrapes read the counters.
"$REPO/build-asan/tests/telemetry_tests"
# Connection, origin-leg and reactor-op lifetimes across real sockets,
# including the proxy's teardown order.
"$REPO/build-asan/tests/apps_tests" --gtest_filter='RealProxy*'

echo
echo "check.sh: all passes green"
