#!/usr/bin/env python3
"""End-to-end benchmark of the Theorem-2 distance-oracle service.

Builds query_server from the repository and this directory's wire-protocol
load generator (loadgen.cpp) from source, then drives one workload through the
server's binary protocol: the closed loop of `bench_service --loadgen` (one
connection, frames of 512 pairs). The workloads differ only in the pairs
(loadgen.cpp gives the source of each figure):

  uniform  pairs drawn uniformly from all vertex pairs, so the result cache
           misses and every query runs a label sweep on a shard worker.
  zipf     query_server's pair mix, Zipf(1.1) over 100000 distinct pairs, so
           the result cache answers nearly every query.

Every run first deploys the service three times on a 160x160 grid (grid ->
decomposition tree -> labels -> validated snapshot file, then a fresh server
cold-started from that file, timed until it listens) and reports the median
as setup_s; the last server carries the run's traffic.
Every answer is checked against the exact grid distance d (it must lie in
[d, (1 + eps) d]) and every snapshot file a run writes must be byte-identical.

    python3 perfbench/run.py --workload uniform --seed 1 --seconds 15 --trace 0

Run it from the repository root. Build trees and scratch files go to
$CARGO_TARGET_DIR (default .bench_build). The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}: --trace 0 reports the
end_to_end metrics of BENCHMARK.json, --trace 1 the per_layer ones, taken from
the servers' exported metrics (--statsz=json) and the load generator's timers.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time

EPS = 0.25  # loadgen checks answers against the same eps (kEps)
SIDE = 160  # grid side: three deployments take about 8 s
SETUPS = 3  # deployments per run; setup_s is their median
WARMUP_S = 1.0  # untimed traffic before the timed window (kWarmupS)
MARGIN_S = 2.5  # a server outlives its traffic by this much
TIMEOUT_S = 150  # for any one process

WORKLOADS = ("uniform", "zipf")  # loadgen --mode

LISTEN = re.compile(r"listening on [0-9.]+:(\d+)")
BUILT = re.compile(r"^built .* in ([0-9.]+)s", re.M)
SAVED = re.compile(r"^saved snapshot .* in ([0-9.]+)s", re.M)
LOADED = re.compile(r"^loaded .* in ([0-9.]+)s", re.M)
SERVED = re.compile(r"^served \d+ queries in (\d+) frames over \d+ "
                    r"connections \((\d+) protocol errors", re.M)

LIVE = []  # every process started, stopped on the way out


class BenchError(Exception):
    """A failure that leaves no result to report."""


def build_tools(root, out, env):
    """Builds query_server from the repository and loadgen from this package;
    returns their paths."""
    jobs = str(min(4, os.cpu_count() or 1))
    tools = []
    for source, tree, target, binary in (
            (root, "repo", "query_server", "examples/query_server"),
            (os.path.join(root, "perfbench"), "perfbench", "loadgen",
             "loadgen")):
        tree = os.path.join(out, tree)
        steps = [["cmake", "--build", tree, "--target", target, "-j", jobs]]
        if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", source, "-B", tree,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True, env=env)
            if done.returncode != 0:
                raise BenchError(f"{' '.join(cmd)} failed:\n"
                                 f"{done.stdout[-4000:]}")
        tools.append(os.path.join(tree, binary))
    return tools


def start(cmd, env):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, env=env)
    LIVE.append(proc)
    return proc


def finish(proc, head=""):
    """Waits for `proc` to exit 0; returns everything it printed."""
    watchdog = threading.Timer(TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{proc.args[0]} exited {proc.returncode}:\n"
                         f"{head}{out}")
    return head + out


def serve(tools, flags, serve_s, trace, env):
    """Starts query_server --serve; returns (process, port, output so far)
    as soon as it listens."""
    cmd = [tools[0], *flags, "--serve=0", f"--serve-duration={serve_s}"]
    if trace:
        cmd.append("--statsz=json")
    proc = start(cmd, env)
    watchdog = threading.Timer(TIMEOUT_S, proc.kill)
    watchdog.start()
    head = ""
    try:
        for line in proc.stdout:
            head += line
            match = LISTEN.match(line)
            if match:
                return proc, int(match.group(1)), head
    finally:
        watchdog.cancel()
    finish(proc, head)
    raise BenchError(f"query_server never listened:\n{head}")


def deploy(tools, snapshot, serve_s, trace, env):
    """graph -> validated snapshot file -> server cold-started from it.
    Returns (seconds until that server listens, builder output, server,
    (file digest, file size)). The file is deleted once the server has read
    it, before its pages reach the disk, so timings do not depend on how fast
    the disk drains the snapshots of earlier deployments."""
    began = time.perf_counter()
    proc, _, head = serve(tools, [f"--side={SIDE}", f"--eps={EPS}",
                                  f"--save={snapshot}"], 0, trace, env)
    built = finish(proc, head)
    server = serve(tools, [f"--load={snapshot}"], serve_s, trace, env)
    elapsed = time.perf_counter() - began
    sha = hashlib.sha256()
    with open(snapshot, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            sha.update(chunk)
    size = os.path.getsize(snapshot)
    os.remove(snapshot)
    return elapsed, built, server, (sha.hexdigest(), size)


def seconds_in(pattern, text):
    match = pattern.search(text)
    return float(match.group(1)) if match else 0.0


def statsz(text):
    """The --statsz=json object a server printed at exit ({} without one)."""
    at = text.find("statsz (json):")
    if at < 0:
        return {}
    body = text[text.index("{", at):text.rindex("}") + 1]
    return json.loads(re.sub(r"(?<![\w.])-?(nan|inf)\b", "0", body))


def counter(stats, name):
    return sum(c["value"] for c in stats.get("counters", [])
               if c["name"] == name)


def histogram(stats, name, field):
    return sum(h[field] for h in stats.get("histograms", [])
               if h["name"] == name)


def build_layers(built, snapshot_bytes):
    """Per-layer costs of one graph -> snapshot build (builder output).
    Stage times are summed over the build's threads."""
    stats = statsz(built)
    return {
        "build_ms": 1e3 * seconds_in(BUILT, built),
        "save_ms": 1e3 * seconds_in(SAVED, built),
        "tree_separator_ms":
            histogram(stats, "hierarchy_separator_find_ns", "sum_ns") / 1e6,
        "tree_split_ms":
            histogram(stats, "hierarchy_component_split_ns", "sum_ns") / 1e6,
        "label_connections_ms":
            histogram(stats, "oracle_connections_ns", "sum_ns") / 1e6,
        "label_assemble_ms":
            histogram(stats, "oracle_assemble_labels_ns", "sum_ns") / 1e6,
        "portal_dijkstras": counter(stats, "oracle_portal_dijkstras_total"),
        "dijkstra_settled": counter(stats, "sssp_dijkstra_settled_total"),
        "snapshot_bytes_per_vertex": snapshot_bytes / SIDE ** 2,
    }


def serve_layers(served, client):
    """Per-layer costs of the traffic: the serving process's exported metrics
    and the load generator's own timers."""
    stats = statsz(served)
    match = SERVED.search(served)
    frames = int(match.group(1)) if match else 0
    hits, misses = counter(stats, "cache_hits"), counter(stats, "cache_misses")
    return {
        "load_ms": 1e3 * seconds_in(LOADED, served),
        "server_frames": frames,
        "protocol_errors": int(match.group(2)) if match else 0,
        "engine_query_p50_ns": histogram(stats, "query_latency_ns", "p50_ns"),
        "engine_query_p99_ns": histogram(stats, "query_latency_ns", "p99_ns"),
        "engine_us_per_frame":
            histogram(stats, "query_latency_ns", "sum_ns") / 1e3
            / max(1, frames),
        "shard_intake_full": counter(stats, "shard_intake_full_total"),
        "cache_hits": hits,
        "cache_hit_ratio": hits / max(1, hits + misses),
        "client_encode_us": client["encode_ns_per_frame"] / 1e3,
        "client_send_us": client["send_ns_per_frame"] / 1e3,
        "client_wait_us": client["wait_ns_per_frame"] / 1e3,
        "client_verify_us": client["verify_ns_per_frame"] / 1e3,
    }


def run(args, tools, env, scratch):
    """Runs one workload; returns (metric values, attempted, failed)."""
    trace = args.trace == 1
    snapshot = os.path.join(scratch, "oracle.snapshot")
    serve_s = WARMUP_S + args.seconds + MARGIN_S
    setups, digests = [], set()
    for k in range(SETUPS):
        last = k == SETUPS - 1
        elapsed, built, server, (sha, size) = deploy(
            tools, snapshot, serve_s if last else 0, trace, env)
        setups.append(elapsed)
        digests.add(sha)
        if not last:
            finish(server[0], server[2])

    proc, port, head = server
    client = json.loads(finish(start(
        [tools[1], f"--port={port}", f"--side={SIDE}", f"--seed={args.seed}",
         f"--seconds={args.seconds}", f"--mode={args.workload}"],
        env)).splitlines()[-1])
    values = build_layers(built, size)
    values.update(serve_layers(finish(proc, head), client))
    values["setup_s"] = statistics.median(setups)
    values["latency_p50_ms"] = client["lat_p50_us"] / 1e3
    values["latency_p90_ms"] = client["lat_p90_us"] / 1e3
    values["throughput_per_s"] = client["qps"]
    attempted = client["checked"] + SETUPS
    failed = client["wrong"] + values["protocol_errors"] + len(digests) - 1
    return values, attempted, failed


def main():
    parser = argparse.ArgumentParser(
        description="Benchmark of the Theorem-2 distance-oracle service.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for need in ("BENCHMARK.json", "CMakeLists.txt", "src", "examples"):
        if not os.path.exists(need):
            sys.exit(f"perfbench: {need} not found; run from the repository "
                     "root")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    scratch = os.path.join(out, "run")
    tmp = os.path.join(out, "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        tools = build_tools(os.getcwd(), out, env)
        values, attempted, failed = run(args, tools, env, scratch)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec}
    except (BenchError, OSError, KeyError, ValueError) as error:
        sys.exit(f"perfbench: {error!r}")
    finally:
        for proc in LIVE:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
