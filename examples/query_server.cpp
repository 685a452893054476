// Query server: build a distance oracle over a planar grid or load its
// snapshot, optionally save and verify it, then serve (u, v) distance
// queries over a TCP port through the shard-per-core ShardedEngine. Load
// comes from outside: `bench_service --loadgen --connect=...` or
// perfbench's loadgen.
//
//   # build from a planar grid and save the snapshot
//   ./query_server --side=64 --eps=0.25 --save=grid.snapshot
//
//   # prove a cold-started snapshot is bit-identical to a fresh build
//   ./query_server --load=grid.snapshot --side=64 --eps=0.25 --verify
//
//   # serve the snapshot on a TCP port for 30 seconds
//   ./query_server --load=grid.snapshot --serve=9917 --serve-duration=30
//
// Flags: --side (grid side length), --eps, --seed (--verify's sampled
// pairs), --save/--load/--verify, --serve=PORT (listen on 127.0.0.1:PORT
// — 0 or a bare --serve picks an ephemeral port — and serve the
// length-prefixed binary protocol). Serving flags, which need --serve:
// --serve-duration (seconds to stay up, a finite number >= 0; default 30),
// --shards (engine worker count, at most 64; 0 = the thread budget:
// PATHSEP_THREADS, else all cores), --cache (result-cache entries, split
// across the shards; 0 disables), --statsz=json|prom (render the /statsz
// payload — engine metrics merged with the process-wide obs registry, plus
// the windowed latency view and slow-log in json format — after serving),
// --trace (record trace spans while serving: batch spans plus tail-sampled
// slow-query exemplars), --trace-out=<path> (write the recorded spans as
// Perfetto-loadable Chrome trace_event JSON at exit; implies --trace).
// Any other flag is an error.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/check.hpp"
#include "graph/generators.hpp"
#include "hierarchy/decomposition_tree.hpp"
#include "obs/export.hpp"
#include "oracle/serialize.hpp"
#include "separator/finders.hpp"
#include "service/net_server.hpp"
#include "service/sharded_engine.hpp"
#include "service/snapshot.hpp"
#include "util/args.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

using namespace pathsep;

namespace {

oracle::PathOracle build_grid_oracle(std::size_t side, double eps) {
  const graph::GridGraph gg = graph::grid(side, side);
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::GridLineSeparator(side, side));
  return oracle::PathOracle(tree, eps);
}

/// The /statsz payload a scraping sidecar would fetch: the engine's private
/// registry (query totals, latency) merged with the process-wide default
/// registry (construction pipeline counters), one exporter format per call.
/// The json flavor also carries the query-path tail sections — the windowed
/// latency view and the exemplar slow-log (prom stays pure metric samples).
std::string render_statsz(const service::ShardedEngine& engine,
                          const std::string& format) {
  obs::MetricsSnapshot merged = engine.metrics().snapshot();
  const obs::MetricsSnapshot process = obs::default_registry().snapshot();
  merged.insert(merged.end(), process.begin(), process.end());
  if (format == "prom") return obs::metrics_to_prometheus(merged);
  std::string json = obs::metrics_to_json(merged);
  // Splice the tail sections into the metrics object before its closing
  // brace.
  json.erase(json.find_last_of('}'));
  json += ",\n  \"windowed\": " +
          obs::window_to_json(engine.window().view(obs::window_now_ns())) +
          ",\n  \"slowlog\": " +
          obs::slowlog_to_json(engine.slowlog().snapshot()) + "\n}\n";
  return json;
}

int run(int argc, char** argv) {
  util::Args args(argc, argv);
  // A count flag outside [lo, hi] is an error (exit 1), never wrapped.
  const auto count = [&args](const char* name, std::int64_t def,
                             std::int64_t lo, std::int64_t hi) {
    return static_cast<std::size_t>(args.get_int(name, def, lo, hi));
  };
  const std::size_t side = count("side", 64, 1, 65535);
  const double eps = args.get_positive("eps", 0.25);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::size_t cache =
      count("cache", 1 << 16, 0, service::ResultCache::kMaxCapacity);
  const std::string save_path = args.get("save");
  const std::string load_path = args.get("load");
  const bool verify = args.get_bool("verify");
  const std::string statsz = args.get("statsz");
  const std::string trace_out = args.get("trace-out");
  const bool trace = args.get_bool("trace") || !trace_out.empty();
  const std::size_t shards = count("shards", 0, 0, 64);
  const bool serve = args.has("serve");
  // A bare --serve (no value) picks an ephemeral port, like --serve=0.
  const auto serve_port = static_cast<std::uint16_t>(
      args.get("serve") == "true" ? 0 : args.get_int("serve", 0, 0, 65535));
  const double serve_duration = args.get_double("serve-duration", 30.0);
  // !(x >= 0) also rejects NaN. Zero is valid: build, save, listen, exit.
  if (!(serve_duration >= 0) || !std::isfinite(serve_duration))
    throw std::invalid_argument(
        "--serve-duration must be a finite number >= 0, got " +
        args.get("serve-duration"));
  if (!statsz.empty() && statsz != "json" && statsz != "prom")
    throw std::invalid_argument("--statsz must be json or prom, got " +
                                statsz);
  // Every flag has been read, so what is left is a typo or a flag this
  // binary does not have: refuse it before any build work.
  args.reject_unused("query_server");
  // The serving flags act only on the serving window.
  if (!serve)
    for (const char* flag :
         {"shards", "cache", "serve-duration", "statsz", "trace", "trace-out"})
      if (args.has(flag))
        throw std::invalid_argument(std::string("--") + flag +
                                    " needs --serve");
  util::threads();  // rejects a malformed PATHSEP_THREADS before any work

  // 1. Obtain the oracle: cold-start from disk, or build from the grid.
  std::shared_ptr<const oracle::PathOracle> snapshot;
  if (!load_path.empty()) {
    util::Timer timer;
    snapshot = std::make_shared<const oracle::PathOracle>(
        service::load_snapshot(load_path));
    std::printf("loaded %s: %zu vertices, eps=%.3f in %.3fs (no rebuild)\n",
                load_path.c_str(), snapshot->num_vertices(),
                snapshot->epsilon(), timer.elapsed_seconds());
  } else {
    util::Timer timer;
    snapshot = std::make_shared<const oracle::PathOracle>(
        build_grid_oracle(side, eps));
    std::printf("built %zux%zu grid oracle: %zu vertices, eps=%.3f in %.3fs\n",
                side, side, snapshot->num_vertices(), snapshot->epsilon(),
                timer.elapsed_seconds());
  }

  if (!save_path.empty()) {
    util::Timer timer;
    service::save_snapshot(*snapshot, save_path);
    std::printf("saved snapshot to %s (validated round-trip) in %.3fs\n",
                save_path.c_str(), timer.elapsed_seconds());
  }

  // 2. --verify: rebuild fresh and demand bit-identical labels and answers.
  if (verify) {
    const oracle::PathOracle fresh = build_grid_oracle(side, eps);
    if (fresh.num_vertices() != snapshot->num_vertices() ||
        fresh.epsilon() != snapshot->epsilon()) {
      std::printf("VERIFY FAILED: header mismatch\n");
      return 1;
    }
    for (std::size_t v = 0; v < fresh.num_vertices(); ++v)
      if (oracle::serialize_label(fresh.label(static_cast<graph::Vertex>(v))) !=
          oracle::serialize_label(
              snapshot->label(static_cast<graph::Vertex>(v)))) {
        std::printf("VERIFY FAILED: label %zu differs\n", v);
        return 1;
      }
    util::Rng vrng(seed);
    const auto n = static_cast<std::uint64_t>(fresh.num_vertices());
    for (int i = 0; i < 1000; ++i) {
      const auto u = static_cast<graph::Vertex>(vrng.next_below(n));
      const auto v = static_cast<graph::Vertex>(vrng.next_below(n));
      if (fresh.query(u, v) != snapshot->query(u, v)) {
        std::printf("VERIFY FAILED: query(%u,%u) differs\n", u, v);
        return 1;
      }
    }
    std::printf("verify: all labels and 1000 sampled queries bit-identical\n");
  }

  if (!serve) return 0;

  // 3. --serve: expose the engine over the binary wire protocol on a TCP
  // port and stay up for --serve-duration seconds. The listening line is
  // printed (and flushed) first so a wrapper script can parse the port
  // before pointing a load generator at it.
  service::ShardedEngineOptions engine_options;
  engine_options.shards = shards;
  engine_options.cache_capacity = cache;
  service::ShardedEngine engine(snapshot, engine_options);
  service::NetServerOptions net_options;
  net_options.port = serve_port;
  service::NetServer server(engine, net_options);
  if (trace) obs::set_trace_enabled(true);
  server.start();
  std::printf("listening on %s:%u (%zu shards, %.1fs)\n",
              server.host().c_str(), server.port(), engine.num_shards(),
              serve_duration);
  std::fflush(stdout);
  const util::Timer wall;
  while (wall.elapsed_seconds() < serve_duration)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();
  // Every count below is the engine registry's (--statsz shows them all).
  obs::MetricsRegistry& metrics = engine.metrics();
  const auto counter = [&](const char* name) {
    return static_cast<unsigned long long>(metrics.counter(name).value());
  };
  std::printf(
      "served %llu queries in %llu frames over %llu connections "
      "(%llu protocol errors, %.1f MiB in, %.1f MiB out)\n",
      counter("queries_total"),
      static_cast<unsigned long long>(
          metrics.histogram("net_frame_phase_ns", {{"phase", "engine"}})
              .count()),
      counter("net_connections_accepted_total"),
      counter("net_protocol_errors_total"),
      static_cast<double>(counter("net_bytes_in_total")) / (1024.0 * 1024.0),
      static_cast<double>(counter("net_bytes_out_total")) / (1024.0 * 1024.0));
  const auto& latency = engine.metrics().histogram("query_latency_ns");
  std::printf("  latency p50 %.1f us, p99 %.1f us\n",
              latency.percentile_nanos(0.50) / 1000.0,
              latency.percentile_nanos(0.99) / 1000.0);

  if (trace) {
    const std::vector<obs::SpanRecord> spans = obs::drain_spans();
    obs::set_trace_enabled(false);
    std::printf("trace: %zu spans recorded, %llu dropped\n", spans.size(),
                static_cast<unsigned long long>(obs::dropped_spans()));
    if (!trace_out.empty()) {
      std::ofstream trace_file(trace_out);
      trace_file << obs::trace_to_perfetto(spans);
      if (!trace_file.flush())
        throw std::runtime_error("cannot write --trace-out file " +
                                 trace_out);
      std::printf("wrote trace_event JSON to %s (load in ui.perfetto.dev "
                  "or chrome://tracing)\n",
                  trace_out.c_str());
    }
  }

  if (!statsz.empty())
    std::printf("\nstatsz (%s):\n%s", statsz.c_str(),
                render_statsz(engine, statsz).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Contract violations in a serving tool abort with the structured report
  // instead of unwinding through the pool (see check/check.hpp).
  pathsep::check::abort_on_failure();
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
