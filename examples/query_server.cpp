// Query server: build or load a distance-oracle snapshot, then serve
// (u, v) distance queries through the shard-per-core ShardedEngine under a
// closed-loop multi-threaded load generator.
//
//   # build from a planar grid, save the snapshot, serve for 3 seconds
//   ./query_server --side=64 --eps=0.25 --save=grid.snapshot --duration=3
//
//   # cold-start from the snapshot (no rebuild) and serve again
//   ./query_server --load=grid.snapshot --duration=3
//
//   # prove the loaded oracle is bit-identical to a fresh build
//   ./query_server --load=grid.snapshot --side=64 --eps=0.25 --verify
//
//   # serve the binary wire protocol on a TCP port (sharded engine + epoll
//   # front-end); drive it with `bench_service --loadgen --connect=...`
//   ./query_server --side=64 --serve=9917 --serve-duration=30
//
// Flags: --side (grid side length), --eps, --shards (engine worker count,
// at most 64; 0 = the thread budget: PATHSEP_THREADS, else all cores),
// --clients (load-generator threads), --batch (queries per client batch),
// --duration (seconds), --pairs (distinct query pairs), --zipf (skew
// exponent; 0 = uniform), --cache (result-cache entries, split across the
// shards; 0 disables),
// --save/--load/--verify, --serve=PORT (listen on 127.0.0.1:PORT — 0 picks
// an ephemeral port — and serve the length-prefixed binary protocol instead
// of running the in-process load loop),
// --serve-duration (seconds to stay up; default 30), --statsz=json|prom
// (render the /statsz payload — engine metrics merged with the process-wide
// obs registry, plus the windowed latency view and slow-log in json format —
// after serving), --trace (record trace spans while serving: batch spans
// plus tail-sampled slow-query exemplars), --trace-out=<path> (write the
// recorded spans as Perfetto-loadable Chrome trace_event JSON; implies
// --trace).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
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
std::string render_statsz(const obs::MetricsRegistry& metrics,
                          const obs::WindowedHistogram& window,
                          const obs::SlowLog& slowlog,
                          const std::string& format) {
  obs::MetricsSnapshot merged = metrics.snapshot();
  const obs::MetricsSnapshot process = obs::default_registry().snapshot();
  merged.insert(merged.end(), process.begin(), process.end());
  if (format == "prom") return obs::metrics_to_prometheus(merged);
  std::string json = obs::metrics_to_json(merged);
  // Splice the tail sections into the metrics object before its closing
  // brace.
  json.erase(json.find_last_of('}'));
  json += ",\n  \"windowed\": " +
          obs::window_to_json(window.view(obs::window_now_ns())) +
          ",\n  \"slowlog\": " +
          obs::slowlog_to_json(slowlog.snapshot()) + "\n}\n";
  return json;
}

}  // namespace

namespace {

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
  const std::size_t clients = count("clients", 4, 1, 1024);
  const std::size_t batch = count("batch", 512, 1, 1 << 20);
  const double duration = args.get_double("duration", 3.0);
  const std::size_t pairs = count("pairs", 100000, 1, 1 << 24);
  const double zipf_s = args.get_double("zipf", 1.1);
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
  if (!statsz.empty() && statsz != "json" && statsz != "prom") {
    std::fprintf(stderr, "error: --statsz must be json or prom\n");
    return 1;
  }
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

  service::ShardedEngineOptions engine_options;
  engine_options.shards = shards;
  engine_options.cache_capacity = cache;
  service::ShardedEngine engine(snapshot, engine_options);

  // 3a. --serve: expose the engine over the binary wire protocol on a TCP
  // port and stay up for --serve-duration seconds. The listening line is
  // printed (and flushed) first so a wrapper script can parse the port
  // before pointing a load generator at it.
  if (serve) {
    service::NetServerOptions net_options;
    net_options.port = serve_port;
    service::NetServer server(engine, net_options);
    server.start();
    std::printf("listening on %s:%u (%zu shards, %.1fs)\n",
                server.host().c_str(), server.port(), engine.num_shards(),
                serve_duration);
    std::fflush(stdout);
    const util::Timer wall;
    while (wall.elapsed_seconds() < serve_duration)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.stop();
    const service::NetServer::Stats stats = server.stats();
    std::printf(
        "served %llu queries in %llu frames over %llu connections "
        "(%llu protocol errors, %.1f MiB in, %.1f MiB out)\n",
        static_cast<unsigned long long>(stats.queries_answered),
        static_cast<unsigned long long>(stats.frames_in),
        static_cast<unsigned long long>(stats.connections_accepted),
        static_cast<unsigned long long>(stats.protocol_errors),
        static_cast<double>(stats.bytes_in) / (1024.0 * 1024.0),
        static_cast<double>(stats.bytes_out) / (1024.0 * 1024.0));
    const auto& latency = engine.metrics().histogram("query_latency_ns");
    std::printf("  latency p50 %.1f us, p99 %.1f us\n",
                latency.percentile_nanos(0.50) / 1000.0,
                latency.percentile_nanos(0.99) / 1000.0);
    if (!statsz.empty())
      std::printf("\nstatsz (%s):\n%s", statsz.c_str(),
                  render_statsz(engine.metrics(), engine.window(),
                                engine.slowlog(), statsz)
                      .c_str());
    return 0;
  }

  if (duration <= 0) return 0;

  // 3b. Closed-loop load generation: each client thread draws pairs from a
  // Zipf-ranked pool (the skew a real object-location service sees) and
  // submits fixed-size batches until the deadline.

  const auto n = static_cast<std::uint64_t>(snapshot->num_vertices());
  util::Rng pool_rng(seed);
  std::vector<service::Query> pair_pool;
  pair_pool.reserve(pairs);
  for (std::size_t i = 0; i < pairs; ++i)
    pair_pool.push_back({static_cast<graph::Vertex>(pool_rng.next_below(n)),
                         static_cast<graph::Vertex>(pool_rng.next_below(n))});
  const util::ZipfSampler zipf(pair_pool.size(), zipf_s);

  std::printf(
      "serving: %zu shards, %zu clients, batch %zu, %zu pairs "
      "(zipf s=%.2f), cache %zu entries, %.1fs...%s\n",
      engine.num_shards(), clients, batch, pairs, zipf_s, cache, duration,
      trace ? " (tracing)" : "");
  if (trace) obs::set_trace_enabled(true);

  std::vector<std::thread> load;
  std::vector<std::uint64_t> answered(clients, 0);
  util::Timer wall;
  for (std::size_t c = 0; c < clients; ++c)
    load.emplace_back([&, c] {
      util::Rng rng(seed + 1000 * (c + 1));
      std::vector<service::Query> queries(batch);
      while (wall.elapsed_seconds() < duration) {
        for (service::Query& q : queries) q = pair_pool[zipf.sample(rng)];
        answered[c] += engine.query_batch(queries).size();
      }
    });
  for (std::thread& t : load) t.join();
  const double elapsed = wall.elapsed_seconds();

  std::uint64_t total = 0;
  for (const std::uint64_t a : answered) total += a;
  // Non-const: MetricsRegistry::histogram/counter are get-or-create.
  obs::MetricsRegistry& engine_metrics = engine.metrics();
  const auto& latency = engine_metrics.histogram("query_latency_ns");
  const std::uint64_t hits = engine_metrics.counter("cache_hits").value();
  const std::uint64_t misses = engine_metrics.counter("cache_misses").value();
  std::printf("\nserved %llu queries in %.2fs\n",
              static_cast<unsigned long long>(total), elapsed);
  std::printf("  QPS            %.0f\n",
              static_cast<double>(total) / elapsed);
  std::printf("  latency p50    %.1f us\n",
              latency.percentile_nanos(0.50) / 1000.0);
  std::printf("  latency p95    %.1f us\n",
              latency.percentile_nanos(0.95) / 1000.0);
  std::printf("  latency p99    %.1f us\n",
              latency.percentile_nanos(0.99) / 1000.0);
  std::printf("  cache hit rate %.1f%% (%llu hits / %llu misses)\n",
              hits + misses == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(hits) /
                        static_cast<double>(hits + misses),
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses));

  // Tail attribution: the rolling windowed view next to the cumulative
  // percentiles above, and the slowest exemplars with their cost stats.
  const obs::WindowedHistogram::View wview =
      engine.window().view(obs::window_now_ns());
  std::printf("  windowed       qps %.0f, p50 %.1f us, p99 %.1f us "
              "(last %zu x %.0fs window%s)\n",
              wview.qps, wview.p50_nanos / 1000.0, wview.p99_nanos / 1000.0,
              wview.windows, static_cast<double>(wview.interval_ns) / 1e9,
              wview.windows == 1 ? "" : "s");
  const std::vector<obs::SlowQuery> slow = engine.slowlog().snapshot();
  const auto outcome_name = [](obs::SlowQuery::Outcome outcome) {
    switch (outcome) {
      case obs::SlowQuery::Outcome::kCached: return "cached";
      case obs::SlowQuery::Outcome::kSelf: return "self";
      case obs::SlowQuery::Outcome::kUnreachable: return "unreachable";
      default: return "oracle";
    }
  };
  std::printf("\nslow-log (top %zu of %llu admitted):\n",
              std::min<std::size_t>(slow.size(), 5),
              static_cast<unsigned long long>(engine.slowlog().admitted()));
  for (std::size_t i = 0; i < slow.size() && i < 5; ++i)
    std::printf("  (%u, %u) %.1f us, %u entries scanned, level %d, %s%s\n",
                slow[i].u, slow[i].v,
                static_cast<double>(slow[i].latency_ns) / 1000.0,
                slow[i].entries_scanned, slow[i].win_level,
                outcome_name(slow[i].outcome),
                slow[i].span_id != 0 ? " [exemplar span]" : "");

  std::printf("\nmetrics:\n%s", engine_metrics.report().c_str());

  if (trace) {
    const std::vector<obs::SpanRecord> spans = obs::drain_spans();
    obs::set_trace_enabled(false);
    std::printf("\ntrace: %zu spans recorded, %llu dropped\n", spans.size(),
                static_cast<unsigned long long>(obs::dropped_spans()));
    if (!trace_out.empty()) {
      std::ofstream trace_file(trace_out);
      trace_file << obs::trace_to_perfetto(spans);
      std::printf("wrote trace_event JSON to %s (load in ui.perfetto.dev "
                  "or chrome://tracing)\n",
                  trace_out.c_str());
    }
  }

  if (!statsz.empty())
    std::printf("\nstatsz (%s):\n%s", statsz.c_str(),
                render_statsz(engine_metrics, engine.window(),
                              engine.slowlog(), statsz)
                    .c_str());

  const auto unused = args.unused();
  for (const std::string& flag : unused)
    std::fprintf(stderr, "warning: unused flag --%s\n", flag.c_str());
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
