#!/usr/bin/env bash
# Builds and runs the construction-throughput benchmark (bench/bench_build.cpp)
# and records the results as BENCH_build.json at the repository root. Extra
# arguments are forwarded to the binary, e.g.:
#
#   scripts/bench_build.sh                         # default sizes and budgets
#   scripts/bench_build.sh --grid-side=128 --threads=1,4
#   scripts/bench_build.sh --big-grid-side=1024    # add the 1M-vertex record
#
# Each --threads value is a thread budget (util::set_threads): the row runs
# on at most that many cores. --quick runs a small smoke configuration —
# tiny instances, budget 1 vs the machine's core count, digests required
# identical, results to a temp file so BENCH_build.json is not clobbered,
# then query_server snapshot files written at both budgets (PATHSEP_THREADS)
# required byte-identical (cmp) — and is what scripts/check.sh uses to gate
# scheduling regressions that break determinism.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}

if [ "${1:-}" = "--quick" ]; then
  shift
  TMP=$(mktemp -d /tmp/bench_build_quick.XXXXXX)
  trap 'rm -rf "$TMP"' EXIT
  MAX_THREADS=$(nproc 2>/dev/null || echo 8)
  [ "$MAX_THREADS" -lt 2 ] && MAX_THREADS=8  # exercise the pool path anyway
  cmake --preset release
  cmake --build build -j "$JOBS" --target bench_build query_server
  ./build/bench/bench_build --out="$TMP/bench.json" --grid-side=48 \
      --planar-n=2500 --threads="1,$MAX_THREADS" --require-equal-digests "$@"
  echo "bench_build --quick: digests identical at budgets 1 and $MAX_THREADS"
  # The snapshot file is the label arena byte for byte, padding included:
  # it must not depend on the thread budget either.
  for threads in 1 "$MAX_THREADS"; do
    PATHSEP_THREADS=$threads ./build/examples/query_server --side=48 \
        --eps=0.25 --save="$TMP/t$threads.snapshot" >/dev/null
  done
  cmp "$TMP/t1.snapshot" "$TMP/t$MAX_THREADS.snapshot"
  echo "bench_build --quick: snapshot files identical at budgets 1 and $MAX_THREADS"
  exit 0
fi

cmake --preset release
cmake --build build -j "$JOBS" --target bench_build
./build/bench/bench_build --out=BENCH_build.json "$@"
