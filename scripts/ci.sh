#!/usr/bin/env bash
# The one-command CI gate: tier-1 build + full ctest (which includes
# the fuzz/recovery/serve/fig8b smoke gates), then the suite again under
# ASan and UBSan via scripts/sanitize.sh. Any failure — a test, a
# smoke-gate bound, a sanitizer report — fails the script.
#
#   scripts/ci.sh            # full gate
#   scripts/ci.sh --fast     # tier-1 + smokes only, skip sanitizers
#   PERFBENCH=1 scripts/ci.sh --fast   # plus the perfbench self-test
#   TSAN=1 scripts/ci.sh --fast        # plus the suite under TSan
#
# The TSan configuration (scripts/sanitize.sh thread) is not part of
# the default gate — it roughly triples runtime — but is the tree that
# exercises the exp engine's thread pool (parallel grid cells) and the
# obs registry's lock-free counters (Obs.ConcurrentRegistryHammer);
# export TSAN=1 when touching either.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
  shift
fi

BUILD="${BUILD:-build}"
JOBS="$(nproc)"

step() { printf '\n==> %s\n' "$*"; }

step "tier-1 configure + build ($BUILD)"
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
# The tree builds warning-free, so any compiler warning fails the gate
# instead of scrolling past. Only recompiled files print warnings: a
# clean tree checks them all.
cmake --build "$BUILD" -j "$JOBS" 2>&1 | tee "$BUILD/build.log"
if grep -n 'warning:' "$BUILD/build.log"; then
  echo "ci.sh: the tier-1 build emitted compiler warnings (above)" >&2
  exit 1
fi

# Gates are selected by ctest label, never by name: every smoke gate
# carries the `smoke` label and every opt-in gate the `optin` label
# (set next to each add_test), so a new gate lands in exactly one step.
step "tier-1 ctest (unit + property + corpus suites)"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS" \
    -LE '^(smoke|optin)$'

# The smoke gates run serially and last so their bound assertions
# (fig8b op counters, Fig 6 recovery times, serving SLO/shed bounds,
# oracle cleanliness, soak violations, constraint-feasibility oracle
# cleanliness on the constrained generator) are easy to spot in the log.
step "smoke gates (ctest label smoke)"
ctest --test-dir "$BUILD" --output-on-failure -L '^smoke$'

# Million-node gate, opt-in: export FIG8B_1M=1 to run the 1M-node
# Phoenix cells + the 100k warm-replan demo (~minutes, GBs of RSS).
# Left out of the default gate by design.
if [[ "${FIG8B_1M:-}" == "1" ]]; then
  step "million-node gate: fig8b_1m_smoke"
  FIG8B_1M=1 ctest --test-dir "$BUILD" --output-on-failure \
      -R '^fig8b_1m_smoke$'
fi

# Long chaos soak, opt-in: export SOAK_HOURS to a simulated-hour count
# (e.g. SOAK_HOURS=6) to run chaossoak on seeds 7,8,9 for that long.
# Violation artifacts (Perfetto trace window + shrunk repro) land in
# $BUILD/soak-repros. Without SOAK_HOURS the test self-skips (exit 77).
if [[ -n "${SOAK_HOURS:-}" ]]; then
  step "long soak gate: soak_long (SOAK_HOURS=${SOAK_HOURS})"
  SOAK_HOURS="$SOAK_HOURS" ctest --test-dir "$BUILD" --output-on-failure \
      -R '^soak_long$'
fi

# Long constrained fuzz, opt-in: export CONSTRAINT_FUZZ_CASES to a case
# count (e.g. CONSTRAINT_FUZZ_CASES=5000) to run the constrained
# generator + feasibility oracle for that many cases. Without it the
# test self-skips (exit 77). The `constraints` ctest label groups this
# with constraint_fuzz_smoke and constrained_soak_smoke:
# `ctest -L constraints` runs the whole topology battery.
if [[ -n "${CONSTRAINT_FUZZ_CASES:-}" ]]; then
  step "long constrained fuzz gate: constraint_fuzz_long (CONSTRAINT_FUZZ_CASES=${CONSTRAINT_FUZZ_CASES})"
  CONSTRAINT_FUZZ_CASES="$CONSTRAINT_FUZZ_CASES" ctest --test-dir "$BUILD" \
      --output-on-failure -R '^constraint_fuzz_long$'
fi

# Long forecast fuzz, opt-in: export FORECAST_FUZZ_CASES to a case
# count (e.g. FORECAST_FUZZ_CASES=20000) to drive the warm-cold-
# divergence oracle dimension at bulk. Without it the test self-skips
# (exit 77). The `forecast` ctest label groups this with
# forecast_smoke and the test_forecast suite: `ctest -L forecast`
# runs the whole predictive-degradation battery.
if [[ -n "${FORECAST_FUZZ_CASES:-}" ]]; then
  step "long forecast fuzz gate: forecast_fuzz_long (FORECAST_FUZZ_CASES=${FORECAST_FUZZ_CASES})"
  FORECAST_FUZZ_CASES="$FORECAST_FUZZ_CASES" ctest --test-dir "$BUILD" \
      --output-on-failure -R '^forecast_fuzz_long$'
fi

# Benchmark self-test, opt-in: export PERFBENCH=1 to run the perfbench
# package's own tests at --size tiny (builds perfbench into
# $CARGO_TARGET_DIR or .bench_build). Two same-seed runs must repeat
# every decision digest and the pinned seed-4 stall, so this is a cheap
# end-to-end determinism check for kube DES and controller changes.
if [[ "${PERFBENCH:-}" == "1" ]]; then
  step "benchmark self-test: perfbench/test_perfbench.py"
  python3 perfbench/test_perfbench.py
fi

# Thread sanitizer, opt-in: export TSAN=1 to run the whole suite under
# TSan (scripts/sanitize.sh thread, its own build-thread tree). Runs
# with or without --fast, since asking for it is explicit.
if [[ "${TSAN:-}" == "1" ]]; then
  step "full suite under ThreadSanitizer"
  scripts/sanitize.sh thread
fi

if [[ "$FAST" == "1" ]]; then
  step "--fast: skipping sanitizer builds"
  exit 0
fi

step "full suite under AddressSanitizer"
scripts/sanitize.sh address

step "full suite under UndefinedBehaviorSanitizer"
scripts/sanitize.sh undefined

step "CI gate passed"
