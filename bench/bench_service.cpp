// E14 — query service throughput: serial dispatch vs. the shard-per-core
// ShardedEngine (claimable frames over one immutable snapshot) with and
// without its per-shard result caches, and the engine at 1/2/4/8 shard
// workers on a >=100k-vertex grid, each as the median/min/max of 3 runs.
//
// Workload: a planar grid oracle (the paper's canonical 1-path-separable
// family) serving a fixed number of (u, v) queries, drawn either uniformly
// or Zipf-skewed from a fixed pool of distinct pairs — the repeat-heavy
// popularity distribution an object-location service sees. Serial answers
// on one thread straight from PathOracle::query; sharded hands each batch
// to the shard workers as a claimable frame; cached adds the result
// cache on top (warmed by one pass). Speedups are relative to serial QPS on
// the same workload. Every engine row carries the observability surface:
// windowed qps/p50/p99, slow-log exemplars, and the answers_total-level
// family (which the bench asserts sums to queries_total). The E14c rows
// additionally cross-check an order-sensitive FNV digest of the full answer
// stream — any divergence across shard counts is a hard failure (nonzero
// exit).
//
// Beyond closed-loop throughput the bench measures:
//   - open-loop arrival (E14d): batches submitted on a fixed schedule via
//     ShardedEngine::submit_batch, latency measured from the *scheduled*
//     arrival (not the submit), so queueing delay under load is visible —
//     p50/p99 reported at 0.5/0.7/0.9 of the measured closed-loop peak.
//   - the network path (E14e): an in-process epoll NetServer serving the
//     binary wire protocol on localhost, driven by the same loadgen loop
//     that `bench_service --loadgen --connect=HOST:PORT` runs against an
//     external server (scripts/serve_smoke.sh wires the two together).
//   - fan-out efficiency (E14c): one caller's closed loop of 512-pair
//     uniform frames at each shard count, p50/p90 frame latency as the
//     median/min/max of 3 runs, beside the ideal split of the frame's
//     serial cost (serial ns/query x 512 / shards). The 4-shard row runs
//     once more under a steal rig: one forked busy-loop child that pins
//     only itself to shard worker 0's CPU for the row, then is killed and
//     reaped — the loss a stolen vCPU causes, made on our own processes.
//   - a tracing-on row (E14c): the sharded engine serving with spans
//     enabled; the bench asserts at least one admitted slow-log entry
//     carries a nonzero exemplar span id (tail sampling actually fired).
//   - the snapshot file (E14f): save_snapshot / load_snapshot of the E14c
//     oracle (median of three), its bytes per vertex on disk and in memory,
//     and the answer digest of the reloaded oracle, which must equal
//     serial's.
//
// Also measures what observing costs on the serving path (E14b): the
// uniform workload answered in 256-query chunks through
// AnswerPath::answer_chunk, the code every shard worker runs, against a
// plain PathOracle::query loop with the same prefetch, at one thread and at
// four threads sharing one AnswerPath, tracing off then on: 31 short
// interleaved trials each, timed in wall and thread CPU time, reported as
// the median paired overhead with a 95% interval against the 5% bar.
// Results land in --out (default
// BENCH_service.json) for the repo record. --quick shrinks every dimension
// for smoke runs. Every JSON row also records the host's CPU steal over the
// row's run window (steal_pct, from /proc/stat; -1 where unmeasured).
#include "common.hpp"
#include "git_sha.h"  // PATHSEP_GIT_SHA, written at build time

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "service/net.hpp"
#include "service/net_server.hpp"
#include "service/sharded_engine.hpp"
#include "service/snapshot.hpp"
#include "util/args.hpp"
#include "util/parallel.hpp"

#if defined(__linux__)
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace pathsep::bench {
namespace {

/// The E14c steal rig: one forked child that pins only itself to `cpu` and
/// spins until the rig is destroyed, which kills and reaps it. It takes
/// half of that CPU from whatever else is pinned there, as host steal
/// would. A negative `cpu` (or a platform without fork) starts nothing; a
/// child that cannot pin itself is reaped at once and the rig does not
/// run. The child also dies with the forking thread, so a bench that exits
/// without running the destructor leaves no spinner behind.
class StealRig {
 public:
  explicit StealRig(int cpu) {
#if defined(__linux__)
    if (cpu < 0) return;
    int ready[2];
    if (::pipe(ready) != 0) return;
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      // The child only makes system calls: safe after fork in a
      // multithreaded parent.
      ::close(ready[0]);
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      cpu_set_t mask;
      CPU_ZERO(&mask);
      CPU_SET(cpu, &mask);
      // A parent that died before prctl() sends no signal: check it.
      const bool ok = ::getppid() == parent &&
                      ::sched_setaffinity(0, sizeof(mask), &mask) == 0;
      const char pinned = ok ? 1 : 0;
      const bool told = ::write(ready[1], &pinned, 1) == 1;
      ::close(ready[1]);
      if (pinned == 0 || !told) ::_exit(1);
      volatile std::uint64_t spin = 0;
      for (;;) spin = spin + 1;
    }
    ::close(ready[1]);
    char pinned = 0;
    ssize_t got = -1;
    if (pid_ > 0) {
      do {
        got = ::read(ready[0], &pinned, 1);
      } while (got < 0 && errno == EINTR);
    }
    ::close(ready[0]);
    if (got != 1 || pinned != 1) stop();
#else
    (void)cpu;
#endif
  }
  ~StealRig() { stop(); }
  StealRig(const StealRig&) = delete;
  StealRig& operator=(const StealRig&) = delete;

  /// True while a child pinned to the rig's CPU spins.
  bool running() const { return pid_ > 0; }

 private:
  void stop() {
#if defined(__linux__)
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
#endif
    pid_ = -1;
  }

  int pid_ = -1;
};

struct Workload {
  std::string name;
  std::vector<service::Query> queries;  ///< the sequence actually served
};

Workload make_workload(const std::string& name, std::size_t distinct_pairs,
                       double zipf_s, std::size_t num_queries, std::size_t n,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<service::Query> pool;
  pool.reserve(distinct_pairs);
  for (std::size_t i = 0; i < distinct_pairs; ++i)
    pool.push_back({static_cast<Vertex>(rng.next_below(n)),
                    static_cast<Vertex>(rng.next_below(n))});
  const util::ZipfSampler zipf(distinct_pairs, zipf_s);
  Workload w{name, {}};
  w.queries.reserve(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i)
    w.queries.push_back(pool[zipf.sample(rng)]);
  return w;
}

/// Order-sensitive FNV-1a over the raw answer bytes: equal streams <=> equal
/// digests, so one u64 cross-checks exactness across engines/shard counts.
struct FnvDigest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(const Weight* values, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t bits;
      std::memcpy(&bits, &values[i], sizeof(bits));
      for (int shift = 0; shift < 64; shift += 8) {
        h ^= (bits >> shift) & 0xFFu;
        h *= 1099511628211ULL;
      }
    }
  }
};

/// With `lat` null this is the raw loop (the overhead section's baseline);
/// with a histogram it times every query, so the serial row reports a real
/// p99 instead of 0.00 — the same per-query timer the engine rows pay.
double run_serial(const oracle::PathOracle& oracle, const Workload& w,
                  obs::LatencyHistogram* lat = nullptr) {
  util::Timer timer;
  Weight sink = 0;
  if (lat) {
    for (const service::Query& q : w.queries) {
      const util::Timer query_timer;
      sink += oracle.query(q.u, q.v);
      lat->record(query_timer.elapsed_ns());
    }
  } else {
    for (const service::Query& q : w.queries) sink += oracle.query(q.u, q.v);
  }
  util::do_not_optimize(sink);
  return static_cast<double>(w.queries.size()) / timer.elapsed_seconds();
}

std::uint64_t serial_digest(const oracle::PathOracle& oracle,
                            const Workload& w) {
  FnvDigest digest;
  for (const service::Query& q : w.queries) {
    const Weight d = oracle.query(q.u, q.v);
    digest.add(&d, 1);
  }
  return digest.h;
}

/// Closed-loop qps of `w` through `engine` in batches; with `digest`, also
/// folds every answer into it.
double run_engine(service::ShardedEngine& engine, const Workload& w,
                  std::size_t batch, FnvDigest* digest = nullptr) {
  std::vector<Weight> results(batch);
  util::Timer timer;
  for (std::size_t begin = 0; begin < w.queries.size(); begin += batch) {
    const std::size_t size = std::min(batch, w.queries.size() - begin);
    engine.query_batch_into(
        std::span<const service::Query>(w.queries).subspan(begin, size),
        results.data());
    if (digest != nullptr) digest->add(results.data(), size);
    util::do_not_optimize(results);
  }
  return static_cast<double>(w.queries.size()) / timer.elapsed_seconds();
}

std::uint64_t counter_value(service::ShardedEngine& engine,
                            const std::string& name) {
  return engine.metrics().counter(name).value();
}

/// The answers_total family's sum (levels + cached/self/unreachable) and
/// queries_total: the attribution invariant the exporter tests pin down
/// says they are equal.
std::pair<std::uint64_t, std::uint64_t> answers_and_queries(
    const service::ShardedEngine& engine) {
  std::uint64_t answers = 0, queries = 0;
  for (const obs::MetricSample& s : engine.metrics().snapshot()) {
    if (s.kind != obs::MetricKind::kCounter) continue;
    if (s.name == "answers_total") answers += s.counter_value;
    if (s.name == "queries_total") queries = s.counter_value;
  }
  return {answers, queries};
}

/// CPU time the calling thread has used, in nanoseconds.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// One E14b trial of one loop: wall-clock qps over all threads, and the
/// threads' summed CPU time per query.
struct LoopTrial {
  double qps = 0;
  double cpu_ns_per_query = 0;
};

/// E14b: `threads` threads, started together, each answer one contiguous
/// share of `w` in 256-query chunks (one shard's share of a 1024-pair
/// frame at 4 shards). With `path` null a chunk is a plain PathOracle::query
/// loop, the baseline, with the answer path's prefetch pipeline, so the
/// difference prices observing alone. Otherwise it is
/// AnswerPath::answer_chunk without a cache: the code a shard worker runs
/// on every frame it works on, with its one clock read per 16-query unit,
/// metric tally published once, windowed histogram and slow-log admission,
/// all threads sharing one AnswerPath as an engine's workers do.
LoopTrial run_answer_path(const oracle::PathOracle& oracle, const Workload& w,
                          std::size_t threads, service::AnswerPath* path) {
  constexpr std::size_t chunk = 256;
  const std::size_t total = w.queries.size();
  std::atomic<bool> go{false};
  std::vector<std::uint64_t> cpu_ns(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t)
    workers.emplace_back([&, t] {
      const std::size_t end = total * (t + 1) / threads;
      std::vector<Weight> results(chunk);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::uint64_t cpu_start = thread_cpu_ns();
      for (std::size_t at = total * t / threads; at < end; at += chunk) {
        const std::size_t size = std::min(chunk, end - at);
        const service::Query* queries = w.queries.data() + at;
        if (path != nullptr) {
          path->answer_chunk(oracle, nullptr, queries, results.data(), size);
        } else {
          for (std::size_t i = 0; i < size; ++i) {
            if (i + 3 < size)
              oracle.prefetch_offsets(queries[i + 3].u, queries[i + 3].v);
            if (i + 2 < size)
              oracle.prefetch(queries[i + 2].u, queries[i + 2].v);
            if (i + 1 < size)
              oracle.prefetch_hot(queries[i + 1].u, queries[i + 1].v);
            results[i] = oracle.query(queries[i].u, queries[i].v);
          }
        }
        util::do_not_optimize(results);
      }
      cpu_ns[t] = thread_cpu_ns() - cpu_start;
    });
  const util::Timer timer;
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();
  const double seconds = timer.elapsed_seconds();
  std::uint64_t cpu_total = 0;
  for (const std::uint64_t ns : cpu_ns) cpu_total += ns;
  return {static_cast<double>(total) / seconds,
          static_cast<double>(cpu_total) / static_cast<double>(total)};
}

/// The median of `values` (not empty) with a distribution-free 95%
/// interval: the order statistics x_(k) and x_(n+1-k) for the largest k
/// with P(Binomial(n, 1/2) < k) <= 0.025, so the interval holds the true
/// median with probability >= 0.95: k = 10 of n = 31, and k = 1 (the whole
/// range) below n = 9.
struct MedianInterval {
  double median = 0, lo = 0, hi = 0;
};

MedianInterval median_interval(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  std::size_t k = 1;
  double pmf = std::pow(0.5, static_cast<double>(n));  // P(B = 0)
  double below = 0;                                    // P(B < j)
  for (std::size_t j = 1; 2 * j <= n; ++j) {
    below += pmf;
    pmf *= static_cast<double>(n - j + 1) / static_cast<double>(j);
    if (below > 0.025) break;
    k = j;
  }
  return {util::percentile(values, 0.5), values[k - 1], values[n - k]};
}

constexpr int kRepeats = 3;  ///< runs per E14 / E14c throughput row

/// Median, min and max of repeated throughput runs.
struct Spread {
  double median = 0, min = 0, max = 0;
};

/// Median, min and max of `runs` (not empty).
Spread spread_of(const std::vector<double>& runs) {
  const auto [lo, hi] = std::minmax_element(runs.begin(), runs.end());
  return {util::percentile(runs, 0.5), *lo, *hi};
}

/// Runs `measure` kRepeats times and returns the spread of its results.
template <typename Measure>
Spread repeat(Measure measure) {
  std::vector<double> runs;
  for (int r = 0; r < kRepeats; ++r) runs.push_back(measure());
  return spread_of(runs);
}

/// One table row: the `head` cells, the qps median, min and max, then the
/// `tail` cells.
void add_qps_row(util::TableWriter& table, std::vector<std::string> row,
                 const Spread& qps, const std::vector<std::string>& tail) {
  for (const double value : {qps.median, qps.min, qps.max})
    row.push_back(util::strf("%.0f", value));
  row.insert(row.end(), tail.begin(), tail.end());
  table.add_row(row);
}

std::string qps_json(const Spread& qps) {
  return util::strf("\"qps\": %.0f, \"qps_min\": %.0f, \"qps_max\": %.0f",
                    qps.median, qps.min, qps.max);
}

struct RunRecord {
  std::string mode, workload;
  std::size_t threads = 1;
  Spread qps;
  double speedup = 1.0, p99_us = 0;
  bool has_window = false;  ///< engine modes carry a windowed-tail view
  obs::WindowedHistogram::View window{};
  double steal_pct = -1;  ///< host steal over the row's runs (StealWindow)
};

// --------------------------------------------------------- sharded closed loop

struct ShardedRow {
  std::size_t shards = 1;
  Spread qps;  ///< run_sharded fills the median; repeats fill the spread
  double speedup = 1.0, p99_us = 0;
  std::uint64_t digest = 0;
  obs::WindowedHistogram::View window{};
  bool answers_sum_ok = true;
  double steal_pct = -1;  ///< over all repeats of the row
};

ShardedRow run_sharded(
    const std::shared_ptr<const oracle::PathOracle>& snapshot,
    const Workload& w, std::size_t batch, std::size_t shards) {
  service::ShardedEngine engine(snapshot, {.shards = shards});
  FnvDigest digest;
  ShardedRow row;
  row.qps.median = run_engine(engine, w, batch, &digest);
  row.shards = engine.num_shards();
  row.p99_us =
      engine.metrics().histogram("query_latency_ns").percentile_nanos(0.99) /
      1000.0;
  row.digest = digest.h;
  row.window = engine.window().view(obs::window_now_ns());
  const auto [answers, queries] = answers_and_queries(engine);
  row.answers_sum_ok = answers == queries && queries == w.queries.size();
  return row;
}

/// E14c fan-out row: closed-loop latency of `frame`-pair batches at one
/// shard count, as the median/min/max over kRepeats runs (a new engine
/// each) of each run's p50 and p90; with `steal_rig`, a StealRig spins on
/// worker 0's CPU through every run.
struct FrameLatencyRow {
  std::size_t shards = 1;
  /// false also when worker 0 had no CPU of its own, or the rig could not
  /// pin itself there
  bool steal_rig = false;
  Spread p50_us, p90_us;
  double ideal_us = 0;  ///< serial ns/query x frame / shards
  double steal_pct = -1;
};

FrameLatencyRow run_frame_latency(
    const std::shared_ptr<const oracle::PathOracle>& snapshot,
    const Workload& w, std::size_t frame, std::size_t shards,
    bool steal_rig = false) {
  std::vector<double> p50s, p90s;
  std::vector<Weight> results(frame);
  std::vector<double> latencies_us;
  FrameLatencyRow row;
  row.steal_rig = steal_rig;  // stays true only if every run had the rig
  const StealWindow steal;
  for (int r = 0; r < kRepeats; ++r) {
    service::ShardedEngine engine(snapshot, {.shards = shards});
    const StealRig rig(steal_rig ? engine.worker_cpu(0) : -1);
    row.steal_rig = row.steal_rig && rig.running();
    latencies_us.clear();
    for (std::size_t begin = 0; begin + frame <= w.queries.size();
         begin += frame) {
      const util::Timer timer;
      engine.query_batch_into(
          std::span<const service::Query>(w.queries).subspan(begin, frame),
          results.data());
      latencies_us.push_back(static_cast<double>(timer.elapsed_ns()) / 1e3);
      util::do_not_optimize(results);
    }
    p50s.push_back(util::percentile(latencies_us, 0.50));
    p90s.push_back(util::percentile(latencies_us, 0.90));
  }
  row.shards = shards;
  row.p50_us = spread_of(p50s);
  row.p90_us = spread_of(p90s);
  row.steal_pct = steal.pct();
  return row;
}

std::string spread_json(const char* name, const Spread& spread) {
  return util::strf("\"%s\": %.1f, \"%s_min\": %.1f, \"%s_max\": %.1f",
                    name, spread.median, name, spread.min, name, spread.max);
}

// ------------------------------------------------------------ open-loop rows

struct OpenLoopRow {
  double offered_qps = 0, achieved_qps = 0;
  double p50_us = 0, p99_us = 0;
  std::size_t queries = 0;
  double steal_pct = -1;
};

/// Submits `batch`-sized slices on a fixed arrival schedule and measures
/// completion latency from the *scheduled* arrival time — a batch that
/// queues behind a backlog is charged its queueing delay even though the
/// submit itself happened late (the standard coordinated-omission fix).
OpenLoopRow run_open_loop(service::ShardedEngine& engine, const Workload& w,
                          std::size_t batch, double offered_qps) {
  struct Inflight {
    std::atomic<std::uint32_t> remaining{0};
    std::uint64_t scheduled_ns = 0;
  };
  const std::size_t total = w.queries.size();
  std::vector<Weight> results(total);
  std::deque<std::unique_ptr<Inflight>> inflight;
  std::vector<double> latencies_us;
  latencies_us.reserve(total / batch + 2);
  const double interval_ns =
      1e9 * static_cast<double>(batch) / offered_qps;

  const StealWindow steal;
  const std::uint64_t t_start = obs::window_now_ns();
  std::uint64_t last_done = t_start;
  auto harvest = [&inflight, &latencies_us, &last_done](bool block) {
    while (!inflight.empty()) {
      Inflight& front = *inflight.front();
      std::uint32_t left = front.remaining.load(std::memory_order_acquire);
      if (left != 0) {
        if (!block) return;
        do {
          front.remaining.wait(left, std::memory_order_acquire);
        } while ((left = front.remaining.load(std::memory_order_acquire)) !=
                 0);
      }
      const std::uint64_t now = obs::window_now_ns();
      last_done = now;
      latencies_us.push_back(static_cast<double>(now - front.scheduled_ns) /
                             1e3);
      inflight.pop_front();
      if (block) return;  // freed one slot; caller decides whether to block on
    }                     // the next
  };

  std::size_t k = 0;
  for (std::size_t begin = 0; begin < total; begin += batch, ++k) {
    const std::size_t size = std::min(batch, total - begin);
    const std::uint64_t scheduled =
        t_start + static_cast<std::uint64_t>(interval_ns *
                                             static_cast<double>(k));
    for (;;) {
      if (obs::window_now_ns() >= scheduled) break;
      harvest(/*block=*/false);
      const std::uint64_t now = obs::window_now_ns();
      if (now >= scheduled) break;
      const std::uint64_t ahead = scheduled - now;
      if (ahead > 200'000)
        std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - 100'000));
      else
        std::this_thread::yield();
    }
    auto entry = std::make_unique<Inflight>();
    entry->scheduled_ns = scheduled;
    entry->remaining.store(static_cast<std::uint32_t>(size),
                           std::memory_order_relaxed);
    engine.submit_batch(
        std::span<const service::Query>(w.queries).subspan(begin, size),
        results.data() + begin, &entry->remaining);
    inflight.push_back(std::move(entry));
    harvest(/*block=*/false);
    // Fewer batches in flight than frame slots before the next submit, so
    // the open loop never runs out of slots by design.
    while (inflight.size() >= service::ShardedEngine::kFrameSlots)
      harvest(/*block=*/true);
  }
  while (!inflight.empty()) harvest(/*block=*/true);
  util::do_not_optimize(results);

  OpenLoopRow row;
  row.offered_qps = offered_qps;
  row.queries = total;
  const double seconds =
      static_cast<double>(std::max<std::uint64_t>(last_done - t_start, 1)) /
      1e9;
  row.achieved_qps = static_cast<double>(total) / seconds;
  row.p50_us = util::percentile(latencies_us, 0.50);
  row.p99_us = util::percentile(latencies_us, 0.99);
  row.steal_pct = steal.pct();
  return row;
}

// -------------------------------------------------------------- network rows

struct NetRow {
  double qps = 0, p50_us = 0, p99_us = 0;
  std::uint64_t frames = 0;
  std::uint64_t digest = 0;
  double steal_pct = -1;
};

/// Closed-loop wire-protocol load generator: frames of `batch` pairs, one
/// round-trip latency sample per frame. The digest covers every distance in
/// arrival order, so the caller can cross-check against a local oracle.
NetRow run_net_loadgen(const std::string& host, std::uint16_t port,
                       const Workload& w, std::size_t batch) {
  service::wire::NetClient client;
  client.connect(host, port);
  std::vector<Weight> distances;
  std::vector<double> latencies_us;
  FnvDigest digest;
  NetRow row;
  const StealWindow steal;
  util::Timer timer;
  for (std::size_t begin = 0; begin < w.queries.size(); begin += batch) {
    const std::size_t size = std::min(batch, w.queries.size() - begin);
    const util::Timer frame_timer;
    client.query_batch(
        std::span<const service::Query>(w.queries).subspan(begin, size),
        distances);
    latencies_us.push_back(static_cast<double>(frame_timer.elapsed_ns()) /
                           1e3);
    digest.add(distances.data(), distances.size());
    ++row.frames;
  }
  row.qps =
      static_cast<double>(w.queries.size()) / timer.elapsed_seconds();
  row.p50_us = util::percentile(latencies_us, 0.50);
  row.p99_us = util::percentile(latencies_us, 0.99);
  row.digest = digest.h;
  row.steal_pct = steal.pct();
  return row;
}

struct SnapshotRow {
  std::vector<double> save_ms, load_ms;  ///< one entry per repetition
  double disk_bytes_per_vertex = 0;      ///< snapshot file size / n
  double memory_bytes_per_vertex = 0;    ///< label arena bytes / n
  std::uint64_t reload_digest = 0;       ///< serial digest of the reload
  double steal_pct = -1;
};

/// Saves (validated) and reloads `oracle` `reps` times through a file in
/// the temp directory.
SnapshotRow run_snapshot(const oracle::PathOracle& oracle, const Workload& w,
                         int reps) {
  SnapshotRow row;
  const std::string path =
      (std::filesystem::temp_directory_path() / "bench_service.snapshot")
          .string();
  const double n = static_cast<double>(oracle.num_vertices());
  const StealWindow steal;
  for (int i = 0; i < reps; ++i) {
    util::Timer timer;
    service::save_snapshot(oracle, path);
    row.save_ms.push_back(timer.elapsed_seconds() * 1e3);
    timer.reset();
    const oracle::PathOracle loaded = service::load_snapshot(path);
    row.load_ms.push_back(timer.elapsed_seconds() * 1e3);
    if (i == 0) row.reload_digest = serial_digest(loaded, w);
  }
  row.steal_pct = steal.pct();
  row.disk_bytes_per_vertex =
      static_cast<double>(std::filesystem::file_size(path)) / n;
  row.memory_bytes_per_vertex =
      static_cast<double>(oracle.arena().bytes()) / n;
  std::filesystem::remove(path);
  return row;
}

std::string hex64(std::uint64_t value) {
  return util::strf("%016llx", static_cast<unsigned long long>(value));
}

// ------------------------------------------------------------- loadgen mode

/// `bench_service --loadgen --connect=HOST:PORT` — drive an external server
/// (examples/query_server --serve) over the wire protocol. With --verify the
/// same deterministic grid oracle is built locally and the answer digest
/// must match (scripts/serve_smoke.sh relies on this). Every value is
/// checked before anything is built or sent: the port must be an integer in
/// [1, 65535], and --side, --queries and --batch lie in ranges the grid, the
/// workload and one wire frame can hold. A bad value, a refused connection
/// or a lost server is an `error: …` line and exit 1; a digest mismatch is
/// exit 1 too.
int run_loadgen_cli(const util::Args& args) {
  const std::string connect = args.get("connect", "127.0.0.1:9917");
  const std::size_t colon = connect.rfind(':');
  if (colon == std::string::npos)
    throw std::invalid_argument("--connect expects HOST:PORT, got '" +
                                connect + "'");
  const std::string host = connect.substr(0, colon);
  const std::string port_text = connect.substr(colon + 1);
  std::uint32_t port_value = 0;
  const char* port_end = port_text.data() + port_text.size();
  const auto [stop, error] =
      std::from_chars(port_text.data(), port_end, port_value);
  if (port_text.empty() || error != std::errc{} || stop != port_end ||
      port_value < 1 || port_value > 65535)
    throw std::invalid_argument(
        "--connect port must be an integer in [1, 65535], got '" +
        port_text + "'");
  const auto port = static_cast<std::uint16_t>(port_value);
  // A count flag outside [lo, hi] is an error, never wrapped.
  const auto count = [&args](const char* name, std::int64_t def,
                             std::int64_t lo, std::int64_t hi) {
    return static_cast<std::size_t>(args.get_int(name, def, lo, hi));
  };
  const std::size_t side = count("side", 40, 1, 65535);
  const double eps = args.get_positive("eps", 0.25);
  const std::size_t num_queries = count("queries", 50000, 1, 1 << 24);
  // One frame carries at most kMaxFrameBytes of payload.
  const std::size_t batch = count(
      "batch", 512, 1,
      (service::wire::kMaxFrameBytes - 4) / service::wire::kEntryBytes);
  const bool verify = args.get_bool("verify");
  args.reject_unused("bench_service --loadgen");

  const std::size_t n = side * side;
  const Workload w = make_workload("loadgen", std::max<std::size_t>(
                                                  1, num_queries / 2),
                                   0.0, num_queries, n, 7);
  std::printf("loadgen: %s:%u, %zu queries (grid %zux%zu), batch %zu\n",
              host.c_str(), port, num_queries, side, side, batch);
  NetRow row;
  try {
    row = run_net_loadgen(host, port, w, batch);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("--connect " + connect + ": " + e.what());
  }
  std::printf("loadgen: %.0f qps over the wire, frame p50 %.1f us, "
              "p99 %.1f us, %llu frames, digest %s\n",
              row.qps, row.p50_us, row.p99_us,
              static_cast<unsigned long long>(row.frames),
              hex64(row.digest).c_str());

  if (verify) {
    // The server built its snapshot from the same deterministic recipe
    // (grid side + eps), so answers must be byte-identical.
    Instance inst = make_grid(side);
    const hierarchy::DecompositionTree tree(inst.graph, *inst.finder);
    const oracle::PathOracle local(tree, eps);
    const std::uint64_t expected = serial_digest(local, w);
    if (expected != row.digest) {
      std::fprintf(stderr,
                   "loadgen: VERIFY FAILED — local digest %s != wire %s\n",
                   hex64(expected).c_str(), hex64(row.digest).c_str());
      return 1;
    }
    std::printf("loadgen: verify OK — wire answers match the local oracle\n");
  }
  return 0;
}

}  // namespace
}  // namespace pathsep::bench

int main(int argc, char** argv) {
  using namespace pathsep;
  using namespace pathsep::bench;

  util::Args args(argc, argv);
  if (args.get_bool("loadgen")) {
    try {
      return run_loadgen_cli(args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  const bool quick = args.get_bool("quick");
  const std::string out_path = args.get("out", "BENCH_service.json");
  try {
    args.reject_unused("bench_service");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const std::size_t side = quick ? 24 : 40;  // E14 small grid
  const double eps = 0.25;
  const std::size_t num_queries = quick ? 40000 : 400000;
  const std::size_t distinct_pairs = quick ? 20000 : 200000;
  const std::size_t batch = 1024;
  const std::size_t threads = util::threads();
  // The sharded/network sections run on a separate >=100k-vertex snapshot
  // (acceptance floor); --quick shrinks it to keep smoke runs under a second.
  const std::size_t big_side = quick ? 60 : 320;
  const std::size_t big_queries = quick ? 20000 : 200000;
  int exit_code = 0;

  section("E14", "query service throughput (serial vs sharded vs cached)");
  std::printf("grid %zux%zu, eps=%.2f, %zu queries, %zu distinct pairs, "
              "batch %zu, %zu worker threads (PATHSEP_THREADS overrides)\n",
              side, side, eps, num_queries, distinct_pairs, batch, threads);

  Instance inst = make_grid(side);
  const hierarchy::DecompositionTree tree(inst.graph, *inst.finder);
  auto snapshot =
      std::make_shared<const oracle::PathOracle>(tree, eps);
  const std::size_t n = snapshot->num_vertices();

  const Workload uniform =
      make_workload("uniform", distinct_pairs, 0.0, num_queries, n, 7);
  const Workload zipf =
      make_workload("zipf-1.1", distinct_pairs, 1.1, num_queries, n, 7);

  util::TableWriter table({"mode", "workload", "threads", "cache", "qps",
                           "qps_min", "qps_max", "speedup", "hit_rate",
                           "p99_us"});
  std::vector<RunRecord> records;
  std::string engine_metrics_json = "{}";
  std::string windowed_json = "{}";
  std::string slowlog_json = "[]";
  std::uint64_t answers_sum = 0, answers_queries = 0;

  for (const Workload* w : {&uniform, &zipf}) {
    obs::LatencyHistogram serial_lat;
    const StealWindow serial_steal;
    const Spread serial =
        repeat([&] { return run_serial(*snapshot, *w, &serial_lat); });
    const double serial_qps = serial.median;
    const double serial_p99_us = serial_lat.percentile_nanos(0.99) / 1000.0;
    add_qps_row(table, {"serial", w->name, "1", "off"}, serial,
                {"1.00x", "-", util::strf("%.1f", serial_p99_us)});
    records.push_back({"serial", w->name, 1, serial, 1.0, serial_p99_us});
    records.back().steal_pct = serial_steal.pct();
    // One engine row: its qps spread, hit-rate cell, p99 and window.
    const auto add_engine_row = [&](const char* mode, const char* cache,
                                    service::ShardedEngine& engine,
                                    const Spread& qps, std::string hit_rate,
                                    double steal_pct) {
      const double p99_us = engine.metrics()
                                .histogram("query_latency_ns")
                                .percentile_nanos(0.99) /
                            1000.0;
      const double speedup = qps.median / serial_qps;
      add_qps_row(table, {mode, w->name, util::strf("%zu", threads), cache},
                  qps,
                  {util::strf("%.2fx", speedup), std::move(hit_rate),
                   util::strf("%.1f", p99_us)});
      records.push_back({mode, w->name, threads, qps, speedup, p99_us, true,
                         engine.window().view(obs::window_now_ns()),
                         steal_pct});
    };

    service::ShardedEngine sharded(snapshot, {.shards = threads});
    const StealWindow sharded_steal;
    const Spread sharded_qps =
        repeat([&] { return run_engine(sharded, *w, batch); });
    add_engine_row("sharded", "off", sharded, sharded_qps, "-",
                   sharded_steal.pct());
    engine_metrics_json = obs::metrics_to_json(sharded.metrics().snapshot());
    windowed_json = obs::window_to_json(records.back().window);
    slowlog_json = obs::slowlog_to_json(sharded.slowlog().snapshot());
    std::tie(answers_sum, answers_queries) = answers_and_queries(sharded);

    service::ShardedEngine cached(
        snapshot, {.shards = threads, .cache_capacity = 1 << 16});
    run_engine(cached, *w, batch);  // warm the caches
    const std::uint64_t warm_hits = counter_value(cached, "cache_hits");
    const std::uint64_t warm_misses = counter_value(cached, "cache_misses");
    const StealWindow cached_steal;
    const Spread cached_qps =
        repeat([&] { return run_engine(cached, *w, batch); });
    const std::uint64_t hits = counter_value(cached, "cache_hits") - warm_hits;
    const std::uint64_t misses =
        counter_value(cached, "cache_misses") - warm_misses;
    const double warm_rate =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
    add_engine_row("cached", "65536", cached, cached_qps,
                   util::strf("%.1f%%", 100.0 * warm_rate), cached_steal.pct());
  }

  table.print(std::cout);
  std::printf(
      "\nnotes: qps is the median of %d runs (min and max beside it); "
      "sharded and cached rows run %zu shard workers; the cached hit-rate "
      "column is measured after a full warming pass.\n",
      kRepeats, threads);

  // ---- E14b: what the answer path costs over a plain oracle loop, at one
  // thread and at kOverheadThreads threads sharing one AnswerPath. One trial
  // runs the raw loop and the answer path back to back (alternating which
  // goes first), then the answer path with tracing on; each trial's paired
  // overhead, in wall time and in the threads' CPU time, feeds a median
  // with a 95% interval, judged against the 5% bar.
  section("E14b", "observability cost of the answer path (uniform, uncached)");
  constexpr double kOverheadBarPct = 5.0;
  const int overhead_trials = quick ? 9 : 31;
  struct OverheadRow {
    std::size_t threads = 1;
    Spread raw, path, tracing;  ///< qps over the trials
    /// Per-trial 100 x (1 - loop qps / raw qps), and the same in CPU time
    /// per query (100 x (loop cpu / raw cpu - 1)).
    MedianInterval overhead, overhead_cpu, tracing_overhead;
    std::size_t spans = 0;
    double steal_pct = -1;
  };
  constexpr std::size_t kOverheadThreads = 4;
  std::vector<OverheadRow> overhead;
  for (const std::size_t loop_threads : {std::size_t{1}, kOverheadThreads}) {
    OverheadRow row;
    row.threads = loop_threads;
    std::vector<double> raw_qps, path_qps, tracing_qps;
    std::vector<double> wall_pct, cpu_pct, tracing_pct;
    const auto answer_path_trial = [&] {
      obs::MetricsRegistry registry;
      service::AnswerPath path(registry, snapshot->num_levels(),
                               service::ShardedEngine::kSlowlogCapacity);
      return run_answer_path(*snapshot, uniform, loop_threads, &path);
    };
    const auto raw_trial = [&] {
      return run_answer_path(*snapshot, uniform, loop_threads, nullptr);
    };
    const StealWindow steal;
    for (int r = 0; r < overhead_trials; ++r) {
      LoopTrial raw, path;
      if (r % 2 == 0) {
        raw = raw_trial();
        path = answer_path_trial();
      } else {
        path = answer_path_trial();
        raw = raw_trial();
      }
      obs::set_trace_enabled(true);
      const LoopTrial tracing = answer_path_trial();
      obs::set_trace_enabled(false);
      raw_qps.push_back(raw.qps);
      path_qps.push_back(path.qps);
      tracing_qps.push_back(tracing.qps);
      wall_pct.push_back(100.0 * (1.0 - path.qps / raw.qps));
      cpu_pct.push_back(
          100.0 * (path.cpu_ns_per_query / raw.cpu_ns_per_query - 1.0));
      tracing_pct.push_back(100.0 * (1.0 - tracing.qps / raw.qps));
    }
    row.raw = spread_of(raw_qps);
    row.path = spread_of(path_qps);
    row.tracing = spread_of(tracing_qps);
    row.overhead = median_interval(wall_pct);
    row.overhead_cpu = median_interval(cpu_pct);
    row.tracing_overhead = median_interval(tracing_pct);
    row.steal_pct = steal.pct();
    row.spans = obs::drain_spans().size();
    overhead.push_back(row);
  }
  const auto pct_cell = [](const MedianInterval& m) {
    return util::strf("%+.2f%% [%+.2f, %+.2f]", m.median, m.lo, m.hi);
  };
  const auto verdict = [&](const MedianInterval& m) {
    return m.hi <= kOverheadBarPct  ? "under"
           : m.lo > kOverheadBarPct ? "over"
                                    : "undecided";
  };
  util::TableWriter overhead_table({"threads", "loop", "qps", "qps_min",
                                    "qps_max", "overhead (wall)",
                                    "overhead (cpu)", "5% bar"});
  for (const OverheadRow& row : overhead) {
    const std::string threads_cell = util::strf("%zu", row.threads);
    add_qps_row(overhead_table, {threads_cell, "raw"}, row.raw,
                {"-", "-", "-"});
    add_qps_row(overhead_table, {threads_cell, "answer_path"}, row.path,
                {pct_cell(row.overhead), pct_cell(row.overhead_cpu),
                 verdict(row.overhead)});
    add_qps_row(overhead_table, {threads_cell, "tracing"}, row.tracing,
                {pct_cell(row.tracing_overhead), "-",
                 verdict(row.tracing_overhead)});
  }
  overhead_table.print(std::cout);
  std::printf(
      "\nnotes: %d interleaved trials per thread count; qps is the median "
      "(min, max) over them. raw answers through PathOracle::query with the "
      "answer path's prefetch pipeline, answer_path through "
      "AnswerPath::answer_chunk (tracing off, then on: %zu and %zu exemplar "
      "spans). An overhead is the median of the per-trial paired figures "
      "with its 95%% interval: wall is 1 - answer_path qps / raw qps, cpu is "
      "the threads' CPU time per query over raw's, minus 1. The bar column "
      "says whether the wall interval lies under, over or across %.0f%%.\n",
      overhead_trials, overhead[0].spans, overhead[1].spans, kOverheadBarPct);

  // ---- E14c: shard-per-core engine on a production-sized snapshot, with
  // the digest cross-check and a tracing-on row.
  section("E14c", "sharded engine (claimable frames, epoch snapshots)");
  std::printf("building grid %zux%zu (n=%zu) snapshot...\n", big_side,
              big_side, big_side * big_side);
  Instance big_inst = make_grid(big_side);
  const hierarchy::DecompositionTree big_tree(big_inst.graph,
                                              *big_inst.finder);
  auto big_snapshot =
      std::make_shared<const oracle::PathOracle>(big_tree, eps);
  const Workload big_w =
      make_workload("uniform", big_queries / 2, 0.0, big_queries,
                    big_snapshot->num_vertices(), 11);

  obs::LatencyHistogram big_serial_lat;
  const StealWindow big_serial_steal;
  const Spread big_serial =
      repeat([&] { return run_serial(*big_snapshot, big_w, &big_serial_lat); });
  const double big_serial_qps = big_serial.median;
  const double big_serial_steal_pct = big_serial_steal.pct();
  const std::uint64_t expected_digest = serial_digest(*big_snapshot, big_w);

  util::TableWriter sharded_table(
      {"mode", "shards", "qps", "qps_min", "qps_max", "speedup", "p99_us",
       "win_p99_us", "digest", "sum_ok"});
  add_qps_row(
      sharded_table, {"serial", "1"}, big_serial,
      {"1.00x",
       util::strf("%.1f", big_serial_lat.percentile_nanos(0.99) / 1000.0), "-",
       hex64(expected_digest), "-"});

  std::vector<ShardedRow> sharded_rows;
  double peak_qps = big_serial_qps;
  bool digests_ok = true;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    ShardedRow row;  // the last run's latency view, every run's qps
    bool digest_ok = true;  // every run must reproduce serial's digest
    const StealWindow steal;
    row.qps = repeat([&] {
      row = run_sharded(big_snapshot, big_w, batch, shards);
      digest_ok = digest_ok && row.digest == expected_digest;
      digests_ok = digests_ok && row.answers_sum_ok;
      return row.qps.median;
    });
    row.speedup = row.qps.median / big_serial_qps;
    row.steal_pct = steal.pct();
    digests_ok = digests_ok && digest_ok;
    sharded_rows.push_back(row);
    peak_qps = std::max(peak_qps, row.qps.median);
    add_qps_row(sharded_table, {"sharded", util::strf("%zu", row.shards)},
                row.qps,
                {util::strf("%.2fx", row.speedup),
                 util::strf("%.1f", row.p99_us),
                 util::strf("%.1f", row.window.p99_nanos / 1e3),
                 hex64(row.digest) + (digest_ok ? "" : " MISMATCH"),
                 row.answers_sum_ok ? "yes" : "NO"});
  }

  // Tracing-on sharded row: tail sampling must attach a nonzero exemplar
  // span id to at least one admitted slow-log entry.
  obs::set_trace_enabled(true);
  std::size_t slowlog_span_entries = 0;
  std::size_t slowlog_entries = 0;
  double tracing_sharded_qps = 0;
  double tracing_steal_pct = -1;
  {
    const StealWindow steal;
    service::ShardedEngine engine(big_snapshot, {.shards = threads});
    tracing_sharded_qps = run_engine(engine, big_w, batch);
    tracing_steal_pct = steal.pct();
    for (const obs::SlowQuery& slow : engine.slowlog().snapshot()) {
      ++slowlog_entries;
      if (slow.span_id != 0) ++slowlog_span_entries;
    }
    slowlog_json = obs::slowlog_to_json(engine.slowlog().snapshot());
  }
  obs::set_trace_enabled(false);
  const std::size_t tracing_spans = obs::drain_spans().size();
  sharded_table.add_row({"sharded-tracing", util::strf("%zu", threads),
                         util::strf("%.0f", tracing_sharded_qps), "-", "-",
                         util::strf("%.2fx",
                                    tracing_sharded_qps / big_serial_qps),
                         "-", "-", "-",
                         slowlog_span_entries > 0 ? "yes" : "NO"});
  sharded_table.print(std::cout);
  std::printf("tracing row: %zu slowlog entries, %zu with a nonzero exemplar "
              "span id, %zu spans committed\n",
              slowlog_entries, slowlog_span_entries, tracing_spans);
  if (slowlog_span_entries == 0) {
    std::fprintf(stderr, "FAIL: no slow-log entry carries a tail-sampled "
                         "span id with tracing on\n");
    exit_code = 2;
  }
  if (!digests_ok) {
    std::fprintf(stderr, "FAIL: sharded answer digests or answers_total sums "
                         "diverged from serial\n");
    exit_code = 2;
  }
  if (!sharded_rows.empty() && sharded_rows.front().speedup < 1.0)
    std::printf("WARNING: sharded(1) below serial (%.3fx)\n",
                sharded_rows.front().speedup);

  // Fan-out efficiency: one frame's latency against the ideal split of its
  // serial cost over the shards.
  constexpr std::size_t kFrame = 512;
  const double big_serial_ns = 1e9 / big_serial_qps;
  std::vector<FrameLatencyRow> frame_rows;
  util::TableWriter frame_table({"shards", "rig", "frame", "p50_us",
                                 "p50_min", "p50_max", "p90_us", "p90_min",
                                 "p90_max", "ideal_us", "p50/ideal"});
  for (const auto& [shards, rig] :
       {std::pair<std::size_t, bool>{1, false}, {2, false}, {4, false},
        {4, true}, {8, false}}) {
    FrameLatencyRow row =
        run_frame_latency(big_snapshot, big_w, kFrame, shards, rig);
    if (rig && !row.steal_rig) {
      std::printf("steal rig skipped: shard worker 0 has no CPU of its own, "
                  "or the rig could not pin itself there\n");
      continue;
    }
    row.ideal_us = big_serial_ns * static_cast<double>(kFrame) /
                   static_cast<double>(shards) / 1e3;
    frame_table.add_row(
        {util::strf("%zu", shards), row.steal_rig ? "on" : "off",
         util::strf("%zu", kFrame),
         util::strf("%.1f", row.p50_us.median),
         util::strf("%.1f", row.p50_us.min), util::strf("%.1f", row.p50_us.max),
         util::strf("%.1f", row.p90_us.median),
         util::strf("%.1f", row.p90_us.min), util::strf("%.1f", row.p90_us.max),
         util::strf("%.1f", row.ideal_us),
         util::strf("%.2f", row.p50_us.median / row.ideal_us)});
    frame_rows.push_back(row);
  }
  std::printf("\nclosed-loop %zu-pair uniform frames, one caller; median/"
              "min/max of %d runs; ideal = serial %.0f ns/query x %zu / "
              "shards; rig on = a busy-loop process pinned to worker 0's "
              "CPU\n",
              kFrame, kRepeats, big_serial_ns, kFrame);
  frame_table.print(std::cout);

  // ---- E14d: open-loop arrival — p50/p99 from scheduled arrival time at
  // fractions of the measured closed-loop peak.
  section("E14d", "open-loop arrival (latency from scheduled arrival)");
  std::vector<OpenLoopRow> open_loop_rows;
  {
    service::ShardedEngine engine(big_snapshot, {.shards = threads});
    util::TableWriter ol_table({"offered_qps", "of_peak", "achieved_qps",
                                "p50_us", "p99_us"});
    const std::vector<double> fractions =
        quick ? std::vector<double>{0.7} : std::vector<double>{0.5, 0.7, 0.9};
    for (const double fraction : fractions) {
      const OpenLoopRow row =
          run_open_loop(engine, big_w, 256, fraction * peak_qps);
      open_loop_rows.push_back(row);
      ol_table.add_row({util::strf("%.0f", row.offered_qps),
                        util::strf("%.0f%%", 100.0 * fraction),
                        util::strf("%.0f", row.achieved_qps),
                        util::strf("%.1f", row.p50_us),
                        util::strf("%.1f", row.p99_us)});
    }
    ol_table.print(std::cout);
    std::printf("batch 256, in-flight cap %zu batches, peak %.0f qps\n",
                service::ShardedEngine::kFrameSlots - 1, peak_qps);
  }

  // ---- E14e: the network path — in-process epoll server on localhost,
  // driven by the same loadgen loop as --loadgen --connect.
  section("E14e", "network path (binary protocol over localhost)");
  NetRow net_row;
  bool net_ok = true;
#if defined(__linux__)
  {
    service::ShardedEngine engine(big_snapshot, {.shards = threads});
    service::NetServer server(engine);
    server.start();
    net_row = run_net_loadgen("127.0.0.1", server.port(), big_w, 512);
    server.stop();
    const auto mib = [&](const char* name) {
      return static_cast<double>(engine.metrics().counter(name).value()) /
             (1024.0 * 1024.0);
    };
    net_ok = net_row.digest == expected_digest;
    std::printf("wire: %.0f qps, frame p50 %.1f us, p99 %.1f us over %llu "
                "frames (%.1f MiB in, %.1f MiB out), digest %s%s\n",
                net_row.qps, net_row.p50_us, net_row.p99_us,
                static_cast<unsigned long long>(net_row.frames),
                mib("net_bytes_in_total"), mib("net_bytes_out_total"),
                hex64(net_row.digest).c_str(),
                net_ok ? " (matches serial)" : " MISMATCH");
    if (!net_ok) {
      std::fprintf(stderr,
                   "FAIL: network-path digest diverged from serial\n");
      exit_code = 2;
    }
  }
#else
  std::printf("skipped (epoll front-end is Linux-only)\n");
#endif

  // ---- E14f: the snapshot file — the E14c oracle's label arena saved and
  // cold-loaded, answers re-checked against serial's digest.
  section("E14f", "snapshot save/load (label arena file)");
  const SnapshotRow snap_row = run_snapshot(*big_snapshot, big_w, 3);
  const double save_ms = util::percentile(snap_row.save_ms, 0.5);
  const double load_ms = util::percentile(snap_row.load_ms, 0.5);
  const double serial_ns_per_query = 1e9 / big_serial_qps;
  const bool reload_ok = snap_row.reload_digest == expected_digest;
  std::printf("n=%zu: save %.1f ms, load %.1f ms (median of %zu); "
              "%.0f bytes/vertex on disk, %.0f in memory; serial %.0f "
              "ns/query; reload digest %s%s\n",
              big_snapshot->num_vertices(), save_ms, load_ms,
              snap_row.save_ms.size(), snap_row.disk_bytes_per_vertex,
              snap_row.memory_bytes_per_vertex, serial_ns_per_query,
              hex64(snap_row.reload_digest).c_str(),
              reload_ok ? " (matches serial)" : " MISMATCH");
  if (!reload_ok) {
    std::fprintf(stderr, "FAIL: reloaded snapshot answers diverged\n");
    exit_code = 2;
  }

  // ---- JSON record for the repo (EXPERIMENTS.md points here).
  std::ostringstream json;
  json << "{\n  \"bench\": \"bench_service\",\n"
       << "  \"git_sha\": \"" << PATHSEP_GIT_SHA << "\", \"build_type\": \""
       << PATHSEP_BUILD_TYPE << "\", \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ", \"repeats\": " << kRepeats
       << ",\n"
       << "  \"grid_side\": " << side << ", \"epsilon\": " << eps
       << ", \"num_queries\": " << num_queries
       << ", \"distinct_pairs\": " << distinct_pairs
       << ", \"batch\": " << batch << ", \"threads\": " << threads << ",\n"
       << "  \"runs\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    json << "    {\"mode\": \"" << r.mode << "\", \"workload\": \""
         << r.workload << "\", \"threads\": " << r.threads
         << ", " << qps_json(r.qps)
         << ", \"speedup\": " << util::strf("%.3f", r.speedup)
         << ", \"p99_us\": " << util::strf("%.2f", r.p99_us);
    if (r.has_window)
      json << ", \"win_qps\": " << util::strf("%.0f", r.window.qps)
           << ", \"win_p50_us\": "
           << util::strf("%.2f", r.window.p50_nanos / 1e3)
           << ", \"win_p99_us\": "
           << util::strf("%.2f", r.window.p99_nanos / 1e3);
    json << ", \"steal_pct\": " << util::strf("%.1f", r.steal_pct) << "}"
         << (i + 1 < records.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"sharded\": {\"grid_side\": " << big_side
       << ", \"num_vertices\": " << big_side * big_side
       << ", \"num_queries\": " << big_queries
       << ", \"serial_qps\": " << util::strf("%.0f", big_serial.median)
       << ", \"serial_qps_min\": " << util::strf("%.0f", big_serial.min)
       << ", \"serial_qps_max\": " << util::strf("%.0f", big_serial.max)
       << ", \"serial_steal_pct\": "
       << util::strf("%.1f", big_serial_steal_pct)
       << ", \"digest\": \"" << hex64(expected_digest)
       << "\", \"digests_ok\": " << (digests_ok ? "true" : "false")
       << ",\n    \"runs\": [\n";
  for (std::size_t i = 0; i < sharded_rows.size(); ++i) {
    const ShardedRow& r = sharded_rows[i];
    json << "      {\"shards\": " << r.shards << ", " << qps_json(r.qps)
         << ", \"speedup\": " << util::strf("%.3f", r.speedup)
         << ", \"p99_us\": " << util::strf("%.2f", r.p99_us)
         << ", \"win_qps\": " << util::strf("%.0f", r.window.qps)
         << ", \"win_p99_us\": "
         << util::strf("%.2f", r.window.p99_nanos / 1e3)
         << ", \"digest\": \"" << hex64(r.digest)
         << "\", \"answers_sum_ok\": "
         << (r.answers_sum_ok ? "true" : "false")
         << ", \"steal_pct\": " << util::strf("%.1f", r.steal_pct) << "}"
         << (i + 1 < sharded_rows.size() ? "," : "") << "\n";
  }
  json << "    ],\n    \"frame_latency\": [\n";
  for (std::size_t i = 0; i < frame_rows.size(); ++i) {
    const FrameLatencyRow& r = frame_rows[i];
    json << "      {\"shards\": " << r.shards << ", \"steal_rig\": "
         << (r.steal_rig ? "true" : "false") << ", \"frame\": " << kFrame
         << ", " << spread_json("p50_us", r.p50_us) << ", "
         << spread_json("p90_us", r.p90_us)
         << ", \"ideal_us\": " << util::strf("%.1f", r.ideal_us)
         << ", \"steal_pct\": " << util::strf("%.1f", r.steal_pct) << "}"
         << (i + 1 < frame_rows.size() ? "," : "") << "\n";
  }
  json << "    ]\n  },\n"
       << "  \"tracing_row\": {\"qps\": "
       << util::strf("%.0f", tracing_sharded_qps)
       << ", \"slowlog_entries\": " << slowlog_entries
       << ", \"slowlog_span_entries\": " << slowlog_span_entries
       << ", \"spans_recorded\": " << tracing_spans
       << ", \"steal_pct\": " << util::strf("%.1f", tracing_steal_pct)
       << "},\n"
       << "  \"open_loop\": [\n";
  for (std::size_t i = 0; i < open_loop_rows.size(); ++i) {
    const OpenLoopRow& r = open_loop_rows[i];
    json << "    {\"offered_qps\": " << util::strf("%.0f", r.offered_qps)
         << ", \"achieved_qps\": " << util::strf("%.0f", r.achieved_qps)
         << ", \"p50_us\": " << util::strf("%.2f", r.p50_us)
         << ", \"p99_us\": " << util::strf("%.2f", r.p99_us)
         << ", \"steal_pct\": " << util::strf("%.1f", r.steal_pct) << "}"
         << (i + 1 < open_loop_rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"network\": {\"qps\": " << util::strf("%.0f", net_row.qps)
       << ", \"p50_us\": " << util::strf("%.2f", net_row.p50_us)
       << ", \"p99_us\": " << util::strf("%.2f", net_row.p99_us)
       << ", \"frames\": " << net_row.frames << ", \"digest_ok\": "
       << (net_ok ? "true" : "false")
       << ", \"steal_pct\": " << util::strf("%.1f", net_row.steal_pct)
       << "},\n"
       << "  \"snapshot\": {\"num_vertices\": " << big_snapshot->num_vertices()
       << ", \"save_ms\": " << util::strf("%.1f", save_ms)
       << ", \"load_ms\": " << util::strf("%.1f", load_ms)
       << ", \"save_ms_runs\": [";
  for (std::size_t i = 0; i < snap_row.save_ms.size(); ++i)
    json << (i ? ", " : "") << util::strf("%.1f", snap_row.save_ms[i]);
  json << "], \"load_ms_runs\": [";
  for (std::size_t i = 0; i < snap_row.load_ms.size(); ++i)
    json << (i ? ", " : "") << util::strf("%.1f", snap_row.load_ms[i]);
  json << "], \"disk_bytes_per_vertex\": "
       << util::strf("%.1f", snap_row.disk_bytes_per_vertex)
       << ", \"memory_bytes_per_vertex\": "
       << util::strf("%.1f", snap_row.memory_bytes_per_vertex)
       << ", \"serial_ns_per_query\": "
       << util::strf("%.0f", serial_ns_per_query)
       << ", \"reload_digest_ok\": " << (reload_ok ? "true" : "false")
       << ", \"steal_pct\": " << util::strf("%.1f", snap_row.steal_pct)
       << "},\n"
       << "  \"windowed\": " << windowed_json << ",\n"
       << "  \"slowlog\": " << slowlog_json << ",\n"
       << "  \"answers_level_sum\": {\"answers_total\": " << answers_sum
       << ", \"queries_total\": " << answers_queries << ", \"equal\": "
       << (answers_sum == answers_queries ? "true" : "false") << "},\n"
       << "  \"instrumentation_overhead\": {\n"
       << "    \"trials\": " << overhead_trials
       << ", \"bar_pct\": " << util::strf("%.1f", kOverheadBarPct)
       << ", \"raw_qps\": " << util::strf("%.0f", overhead[0].raw.median)
       << ", \"instrumented_qps\": "
       << util::strf("%.0f", overhead[0].path.median)
       << ", \"tracing_qps\": "
       << util::strf("%.0f", overhead[0].tracing.median) << ",\n"
       << "    \"overhead_disabled_pct\": "
       << util::strf("%.2f", overhead[0].overhead.median)
       << ", \"overhead_tracing_pct\": "
       << util::strf("%.2f", overhead[0].tracing_overhead.median)
       << ", \"spans_recorded\": " << overhead[0].spans << ",\n"
       << "    \"rows\": [\n";
  const auto interval_json = [](const char* name, const MedianInterval& m) {
    return util::strf("\"%s\": %.2f, \"%s_ci95\": [%.2f, %.2f]", name,
                      m.median, name, m.lo, m.hi);
  };
  for (std::size_t i = 0; i < overhead.size(); ++i) {
    const OverheadRow& row = overhead[i];
    json << "      {\"threads\": " << row.threads << ", \"raw\": {"
         << qps_json(row.raw) << "}, \"answer_path\": {"
         << qps_json(row.path) << "}, \"tracing\": {"
         << qps_json(row.tracing) << "},\n       "
         << interval_json("overhead_disabled_pct", row.overhead) << ", "
         << interval_json("overhead_disabled_cpu_pct", row.overhead_cpu)
         << ",\n       "
         << interval_json("overhead_tracing_pct", row.tracing_overhead)
         << ", \"under_bar\": "
         << (row.overhead.hi <= kOverheadBarPct ? "true" : "false")
         << ", \"spans_recorded\": " << row.spans
         << ", \"steal_pct\": " << util::strf("%.1f", row.steal_pct) << "}"
         << (i + 1 < overhead.size() ? "," : "") << "\n";
  }
  json << "    ]\n  },\n"
       << "  \"engine_metrics\": " << engine_metrics_json << "\n}\n";
  std::ofstream out(out_path);
  out << json.str();
  std::printf("\nwrote %s\n", out_path.c_str());
  return exit_code;
}
