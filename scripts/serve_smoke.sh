#!/usr/bin/env bash
# Localhost round-trip smoke for the network serving path: first require
# query_server to refuse malformed PATHSEP_THREADS, --cache, --eps and
# --serve-duration values and an unknown flag, `bench_service --loadgen`
# to refuse malformed ports, out-of-range counts, a non-finite --eps and an
# unreachable server, and every other example (and bench_service,
# bench_build and bench_separator) to refuse a misspelt flag and a size
# flag out of its range; require a short `--serve --trace-out=F` run to
# write its trace to F and print its `served ...` line in the shape
# perfbench parses; then start
# examples/query_server --serve on an ephemeral port, send it a hostile frame
# (a vertex id far past the snapshot), flood it with more connections than
# its descriptor limit allows and require it to idle rather than spin on
# accept, then drive the same server with
# `bench_service --loadgen` over the length-prefixed binary protocol and
# require the answer digest to match a locally built oracle (--verify).
# Exercises the epoll front-end, the frame codec and its id validation, and
# the sharded engine end to end. Environment: BUILD (binary dir, default build), SIDE (grid side,
# default 40), QUERIES (default 20000).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build}
SIDE=${SIDE:-40}
QUERIES=${QUERIES:-20000}
FD_LIMIT=32  # the serving process's descriptor limit (ulimit -n)

server="$BUILD/examples/query_server"
loadgen="$BUILD/bench/bench_service"
for binary in "$server" "$loadgen" "$BUILD"/bench/bench_{build,separator} "$BUILD"/examples/{quickstart,road_network,smallworld_demo,p2p_object_location,oracle_stats,separator_tool}; do
  if [ ! -x "$binary" ]; then
    echo "serve_smoke: build the example targets, bench_service," \
      "bench_build and bench_separator first" >&2
    exit 1
  fi
done

log=$(mktemp)
trace=$(mktemp)
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  rm -f "$log" "$trace"
}
trap cleanup EXIT

# Hostile thread budgets, flag values and flag names: each must be refused
# with an error naming it and exit 1 — no crash, no fallback, no -1 wrapped
# to SIZE_MAX, no oracle built for an epsilon that is not a finite number
# > 0, no serving window that is not a finite number of seconds >= 0, no
# misspelt flag (--cahce) ignored while the default applies.
for hostile in PATHSEP_THREADS=100000 PATHSEP_THREADS=0 \
  PATHSEP_THREADS=garbage --cache=-1 --cache=abc --eps=nan --eps=inf \
  --eps=0 --cahce=0 --serve-duration=nan --serve-duration=-5 \
  --serve-duration=inf; do
  status=0
  case $hostile in
    --*) "$server" --side=16 "$hostile" ;;
    *) env "$hostile" "$server" --side=16 ;;
  esac >"$log" 2>&1 || status=$?
  if [ "$status" -ne 1 ] || ! grep -q "^error: ${hostile%%=*} " "$log"; then
    echo "serve_smoke: $hostile exited $status," \
      "expected an error naming it and exit 1" >&2
    cat "$log" >&2
    exit 1
  fi
done

# Hostile load-generator values: a malformed or out-of-range port, a port
# nothing listens on (1 on localhost) and out-of-range counts must each be
# an error naming the flag and exit 1 — no uncaught exception, no port
# wrapped modulo 65536.
for hostile in --connect=127.0.0.1:abc --connect=127.0.0.1:70000 \
  --connect=127.0.0.1:1 --side=0 --queries=0 --batch=0 --batch=1000000 \
  --eps=nan; do
  status=0
  "$loadgen" --loadgen "$hostile" >"$log" 2>&1 || status=$?
  if [ "$status" -ne 1 ] || ! grep -q "^error: ${hostile%%=*} " "$log"; then
    echo "serve_smoke: bench_service --loadgen $hostile exited $status," \
      "expected an error naming it and exit 1" >&2
    cat "$log" >&2
    exit 1
  fi
done

# Misspelt flags in the other binaries: each must be an error naming the
# flag and exit 1 before any work, not a run on the default value.
for hostile in "quickstart --n=300 --epss=0.9" "road_network --sidee=8" \
  "smallworld_demo --pair=3" "p2p_object_location --objets=5" \
  "oracle_stats --sidee=8" "separator_tool --famly=tree" \
  "bench_service --quik" "bench_service --loadgen --verfy" \
  "bench_build --grid-sidee=8" "bench_separator --road-sid=8"; do
  set -- $hostile
  binary="$BUILD/examples/$1"
  [ "${1#bench_}" != "$1" ] && binary="$BUILD/bench/$1"
  flag=${!#}
  status=0
  "$binary" "${@:2}" >"$log" 2>&1 || status=$?
  if [ "$status" -ne 1 ] || ! grep -q "^error: ${flag%%=*} is not a" "$log"; then
    echo "serve_smoke: $hostile exited $status, expected an error naming" \
      "${flag%%=*} and exit 1" >&2
    cat "$log" >&2
    exit 1
  fi
done

# Size flags are range-checked before any work: a negative or absurd size
# must name its flag and exit 1, not hang, grow without bound or crash
# (timeout bounds a regression).
for hostile in "quickstart --n=-5" "separator_tool --n=-1" \
  "bench_separator --road-side=-1" "bench_build --grid-side=-1" \
  "road_network --side=100000" "p2p_object_location --n=-1" \
  "p2p_object_location --replicas=0"; do
  set -- $hostile
  binary="$BUILD/examples/$1"
  [ "${1#bench_}" != "$1" ] && binary="$BUILD/bench/$1"
  flag=${!#}
  status=0
  timeout 10 "$binary" "${@:2}" >"$log" 2>&1 || status=$?
  if [ "$status" -ne 1 ] || ! grep -q "^error: ${flag%%=*} must be in" "$log"
  then
    echo "serve_smoke: $hostile exited $status, expected a range error" \
      "naming ${flag%%=*} and exit 1" >&2
    cat "$log" >&2
    exit 1
  fi
done

# Tracing covers the serving window: a short --serve run with --trace-out
# must leave a Perfetto trace_event file behind. With no client its served
# line reads all zeros, in the exact shape perfbench/run.py parses.
status=0
"$server" --side=16 --serve=0 --serve-duration=0.5 --trace-out="$trace" \
  >"$log" 2>&1 || status=$?
if [ "$status" -ne 0 ] || ! grep -q traceEvents "$trace"; then
  echo "serve_smoke: --serve --trace-out exited $status and wrote no" \
    "trace_event JSON" >&2
  cat "$log" >&2
  exit 1
fi
served_line='^served 0 queries in 0 frames over 0 connections (0 protocol errors'
if ! grep -q "$served_line" "$log"; then
  echo "serve_smoke: --serve printed no idle 'served 0 queries in 0 frames" \
    "over 0 connections (0 protocol errors' line" >&2
  cat "$log" >&2
  exit 1
fi

# --serve-duration is a watchdog, not the test length: the loadgen finishes
# in well under a second and the trap kills the server immediately after.
# The server runs under a low descriptor limit (its own, set in a subshell)
# so the flood below can exhaust it.
(ulimit -n "$FD_LIMIT" && exec "$server" --side="$SIDE" --serve=0 \
  --serve-duration=120) >"$log" 2>&1 &
server_pid=$!

# The server prints (and flushes) "listening on 127.0.0.1:PORT" once bound;
# poll the log for the ephemeral port instead of racing the bind.
port=""
for _ in $(seq 1 300); do
  port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log")
  [ -n "$port" ] && break
  if ! kill -0 "$server_pid" 2>/dev/null; then
    echo "serve_smoke: server exited before listening" >&2
    cat "$log" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "serve_smoke: server never reported a listening port" >&2
  cat "$log" >&2
  exit 1
fi

# Hostile frame: payload_len 12 | request_id 1 | (3, 4000000000). The server
# must count a protocol error and close only this connection.
exec 3<>"/dev/tcp/127.0.0.1/$port"
printf '\x0c\0\0\0\x01\0\0\0\x03\0\0\0\x00\x28\x6b\xee' >&3
if ! timeout 5 cat <&3 >/dev/null; then
  echo "serve_smoke: server did not close the hostile connection" >&2
  exit 1
fi
exec 3<&-
if ! kill -0 "$server_pid" 2>/dev/null; then
  echo "serve_smoke: server died on an out-of-range vertex id" >&2
  cat "$log" >&2
  exit 1
fi

# Descriptor flood: twice as many connections as the server has
# descriptors. Once it holds all it may, accept() fails with EMFILE and the
# rest stay pending on the level-triggered listening socket; the server
# must idle (user + system time from /proc/PID/stat over one second) rather
# than spin, then serve the loadgen below once the flood closes.
flood=()
for _ in $(seq 1 $((2 * FD_LIMIT))); do
  exec {fd}<>"/dev/tcp/127.0.0.1/$port"
  flood+=("$fd")
done
cpu_ticks() { sed 's/^.*) //' "/proc/$server_pid/stat" | awk '{print $12 + $13}'; }
sleep 0.3
held=$(ls "/proc/$server_pid/fd" | wc -l)
ticks_before=$(cpu_ticks)
sleep 1
ticks=$(($(cpu_ticks) - ticks_before))
hz=$(getconf CLK_TCK)
for fd in "${flood[@]}"; do exec {fd}<&-; done
if [ "$held" -lt "$FD_LIMIT" ]; then
  echo "serve_smoke: the flood left the server $held of $FD_LIMIT" \
    "descriptors; it never ran out" >&2
  exit 1
fi
if [ $((ticks * 5)) -gt "$hz" ]; then
  echo "serve_smoke: the server used $ticks of $hz CPU ticks in 1 s idle at" \
    "descriptor exhaustion (spinning on accept)" >&2
  exit 1
fi

"$loadgen" --loadgen --connect="127.0.0.1:$port" --side="$SIDE" \
  --queries="$QUERIES" --verify

echo "serve_smoke: OK (hostile thread budgets, flag values, unknown flags" \
  "and loadgen values refused, --trace-out written, served line parsed," \
  "port $port, hostile" \
  "frame rejected, idle at descriptor exhaustion ($ticks of $hz CPU ticks in" \
  "1 s), $QUERIES queries digest-verified)"
