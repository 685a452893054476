#!/usr/bin/env bash
# Pre-merge correctness gate: the full build/test matrix described in
# README.md ("Correctness tooling"). Run from the repository root:
#
#   scripts/check.sh              # whole matrix
#   scripts/check.sh release tidy # a subset of the steps
#
# A name that is not one of the steps below prints the valid steps and
# exits 2 before anything is built.
#
# Steps:
#   release  strict-warnings (-Werror) build, ctest twice — plain and with
#            PATHSEP_AUDIT=1 so every deep invariant validator runs
#   asan     AddressSanitizer + UndefinedBehaviorSanitizer build, full ctest
#   tsan     ThreadSanitizer build, ctest -L 'service|parallel|obs|flow' (the
#            concurrent query layer, the parallel construction pipeline, the
#            observability layer's cross-thread recording, and the flow
#            backend's thread-count determinism)
#   bench    bench_build --quick determinism smoke: tiny instances, thread
#            budget 1 vs the machine's core count, exits non-zero if any
#            budget changes the label digest or the bytes of a query_server
#            snapshot file (catches scheduling regressions that break the
#            byte-identical-labels guarantee)
#   smoke    query_server must refuse malformed PATHSEP_THREADS, --cache,
#            --eps and --serve-duration values and an unknown flag with an
#            error and exit 1, every other example and bench_service a
#            misspelt flag, and write --trace-out while serving; then a
#            localhost serving round-trip: query_server --serve on an
#            ephemeral port must survive a frame with an out-of-range vertex
#            id and, under a low ulimit -n, a flood of more connections than
#            it has descriptors without spinning on accept, then answer
#            bench_service --loadgen --verify, so the epoll
#            front-end + wire codec + sharded engine answer real socket
#            traffic with digest-checked results (scripts/serve_smoke.sh)
#   tsa      Clang Thread Safety Analysis: clang++ build with -Wthread-safety
#            -Werror=thread-safety-analysis over the PATHSEP_GUARDED_BY /
#            PATHSEP_REQUIRES annotations (util/thread_annotations.hpp) —
#            proves the locking contract on every path at compile time
#            (skipped with a notice when clang++ is not installed)
#   lint     builds tools/lint/pathsep_lint and runs it over src/ bench/
#            examples/ (repo-specific rules: rand-source, unordered-iter,
#            hot-path-alloc, dcheck-side-effect, naked-mutex); any finding
#            fails the gate
#   tidy     clang-tidy over src/, tests/ and examples/ via the `tidy`
#            target (no-op with a notice when clang-tidy is not installed)
#
# Every step uses its own CMake preset/binary dir (see CMakePresets.json),
# so the matrix never invalidates an incremental developer build other than
# `build/` itself (the release preset owns that directory).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}
ALL_STEPS=(release asan tsan tsa bench smoke lint tidy)
STEPS=("$@")
[ ${#STEPS[@]} -eq 0 ] && STEPS=("${ALL_STEPS[@]}")

# in_list NAME WORD...: true when NAME is one of the WORDs.
in_list() {
  local name=$1 word
  shift
  for word in "$@"; do [ "$word" = "$name" ] && return 0; done
  return 1
}
for step in "${STEPS[@]}"; do
  if ! in_list "$step" "${ALL_STEPS[@]}"; then
    echo "check.sh: unknown step '$step'; valid steps: ${ALL_STEPS[*]}" >&2
    exit 2
  fi
done

banner() { printf '\n=== %s ===\n' "$*"; }

want() { in_list "$1" "${STEPS[@]}"; }

if want release; then
  banner "release: -Werror build + ctest (plain, then PATHSEP_AUDIT=1)"
  cmake --preset release
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS"
  PATHSEP_AUDIT=1 ctest --test-dir build --output-on-failure -j "$JOBS"
fi

if want asan; then
  banner "asan: AddressSanitizer + UBSan build + full ctest"
  cmake --preset asan-ubsan
  cmake --build build-asan-ubsan -j "$JOBS"
  ctest --test-dir build-asan-ubsan --output-on-failure -j "$JOBS"
fi

if want tsan; then
  banner "tsan: ThreadSanitizer build + ctest -L 'service|parallel|obs|flow'"
  cmake --preset tsan
  cmake --build build-tsan -j "$JOBS"
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L 'service|parallel|obs|flow'
fi

if want tsa; then
  banner "tsa: Clang Thread Safety Analysis (-Wthread-safety as errors)"
  if command -v clang++ >/dev/null 2>&1; then
    cmake --preset tsa
    cmake --build build-tsa -j "$JOBS"
  else
    echo "clang++ not found — tsa step skipped (annotations still compile"          "to nothing under GCC; the release step proves that)"
  fi
fi

if want bench; then
  banner "bench: bench_build --quick determinism smoke (digests and snapshot bytes across thread budgets)"
  scripts/bench_build.sh --quick
fi

if want smoke; then
  banner "smoke: query_server --serve / bench_service --loadgen round-trip"
  cmake --preset release
  cmake --build build --target query_server quickstart road_network \
    smallworld_demo p2p_object_location oracle_stats separator_tool \
    bench_service bench_build bench_separator -j "$JOBS"
  scripts/serve_smoke.sh
fi

if want lint; then
  banner "lint: pathsep_lint over src/ bench/ examples/"
  cmake --preset release
  cmake --build build --target pathsep_lint -j "$JOBS"
  build/tools/lint/pathsep_lint src bench examples
fi

if want tidy; then
  banner "tidy: clang-tidy over src/"
  cmake --build build --target tidy
fi

banner "check.sh: all requested steps passed"
