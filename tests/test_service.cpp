// The query service layer's building blocks: thread pool, the per-shard
// 4-way result cache (with hits and misses counted by the AnswerPath in
// front of it),
// metrics, and whole-oracle snapshots — snapshot round-trips must be
// bit-identical. The ShardedEngine itself is tested in
// test_sharded_service.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "check/audit_oracle.hpp"
#include "check/check.hpp"
#include "graph/generators.hpp"
#include "hierarchy/decomposition_tree.hpp"
#include "obs/metrics.hpp"
#include "oracle/serialize.hpp"
#include "separator/finders.hpp"
#include "service/answer_path.hpp"
#include "service/result_cache.hpp"
#include "service/snapshot.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

namespace pathsep::service {
namespace {

using graph::Vertex;
using graph::Weight;

oracle::PathOracle small_oracle(std::size_t n = 80, double eps = 0.3) {
  util::Rng rng(7);
  const auto gg = graph::random_apollonian(n, rng);
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::PlanarCycleSeparator(gg.positions));
  return oracle::PathOracle(tree, eps);
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEverySubmittedTask) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 1000; ++i)
    pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1000);
  EXPECT_EQ(pool.queued(), 0u);
}

TEST(ThreadPool, ConcurrentSubmittersAllComplete) {
  util::ThreadPool pool(3);
  std::atomic<int> ran{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t)
    submitters.emplace_back([&pool, &ran] {
      for (int i = 0; i < 250; ++i) pool.submit([&ran] { ran.fetch_add(1); });
    });
  for (std::thread& s : submitters) s.join();
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1000);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) pool.submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturns) {
  util::ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
}

// --------------------------------------------------------------- ResultCache

TEST(ResultCache, KeyIsCanonicalAcrossDirections) {
  EXPECT_EQ(ResultCache::key(3, 7), ResultCache::key(7, 3));
  EXPECT_NE(ResultCache::key(3, 7), ResultCache::key(3, 8));
  EXPECT_EQ(ResultCache::key(5, 5), ResultCache::key(5, 5));
}

TEST(ResultCache, GetAfterPutHitsAndCounts) {
  ResultCache cache(8);
  const std::uint64_t k = ResultCache::key(1, 2);
  EXPECT_FALSE(cache.get(k).has_value());
  cache.put(k, 2.5);
  const auto hit = cache.get(k);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 2.5);

  // Hits and misses are counted once, by the AnswerPath in front of the
  // cache: a miss on (1, 2), then a hit on the canonical (2, 1).
  const oracle::PathOracle oracle = small_oracle(40);
  ResultCache served(8);
  obs::MetricsRegistry metrics;
  AnswerPath path(metrics, oracle.num_levels(), 0);
  const Query queries[] = {{1, 2}, {2, 1}};
  Weight results[2];
  path.answer_chunk(oracle, &served, queries, results, 2);
  EXPECT_EQ(results[0], oracle.query(1, 2));
  EXPECT_EQ(results[1], oracle.query(1, 2));
  EXPECT_EQ(metrics.counter("cache_hits").value(), 1u);
  EXPECT_EQ(metrics.counter("cache_misses").value(), 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(4);  // one 4-way set, so every key competes for it
  for (Vertex v = 1; v <= 4; ++v)
    cache.put(ResultCache::key(0, v), static_cast<Weight>(v));
  EXPECT_TRUE(cache.get(ResultCache::key(0, 1)).has_value());  // refresh (0,1)
  cache.put(ResultCache::key(0, 5), 5.0);  // evicts (0,2), the least recent
  EXPECT_TRUE(cache.get(ResultCache::key(0, 1)).has_value());
  EXPECT_FALSE(cache.get(ResultCache::key(0, 2)).has_value());
  for (Vertex v = 3; v <= 5; ++v)
    EXPECT_EQ(cache.get(ResultCache::key(0, v)).value_or(-1),
              static_cast<Weight>(v));
  cache.put(ResultCache::key(0, 3), 30.0);  // an update moves, never copies
  EXPECT_EQ(cache.get(ResultCache::key(0, 3)).value_or(-1), 30.0);
  EXPECT_TRUE(cache.get(ResultCache::key(0, 4)).has_value());
  cache.audit();
}

TEST(ResultCache, ZeroCapacityNeverStores) {
  // Below one 4-way set there is no table.
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{3}}) {
    ResultCache cache(capacity);
    EXPECT_EQ(cache.capacity(), 0u);
    cache.put(ResultCache::key(1, 2), 1.0);
    EXPECT_FALSE(cache.get(ResultCache::key(1, 2)).has_value());
  }

  // In front of a zero-capacity cache, or none, every query is one counted
  // miss.
  const oracle::PathOracle oracle = small_oracle(40);
  ResultCache cache(0);
  obs::MetricsRegistry metrics;
  AnswerPath path(metrics, oracle.num_levels(), 0);
  const Query queries[] = {{1, 2}, {2, 1}};
  Weight results[2];
  path.answer_chunk(oracle, &cache, queries, results, 2);
  path.answer_chunk(oracle, nullptr, queries, results, 1);
  EXPECT_EQ(metrics.counter("cache_hits").value(), 0u);
  EXPECT_EQ(metrics.counter("cache_misses").value(), 3u);
}

TEST(ResultCache, CapacityRoundsDownToFourTimesAPowerOfTwo) {
  EXPECT_EQ(ResultCache(1024).capacity(), 1024u);
  EXPECT_EQ(ResultCache(1023).capacity(), 512u);
  EXPECT_EQ(ResultCache(65536 / 3).capacity(), 16384u);
  EXPECT_EQ(ResultCache(7).capacity(), 4u);
  EXPECT_EQ(ResultCache(4).capacity(), 4u);
}

// ------------------------------------------------------------------- Metrics

TEST(Metrics, CountersAccumulateAcrossThreads) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("ops");
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&counter] {
      for (int i = 0; i < 10000; ++i) counter.inc();
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counter.value(), 40000u);
  // Same name resolves to the same counter.
  EXPECT_EQ(&registry.counter("ops"), &counter);
}

TEST(Metrics, HistogramPercentilesAreBucketAccurate) {
  obs::LatencyHistogram hist;
  // 90 fast samples at ~1us, 10 slow at ~1ms.
  for (int i = 0; i < 90; ++i) hist.record(1000);
  for (int i = 0; i < 10; ++i) hist.record(1000000);
  EXPECT_EQ(hist.count(), 100u);
  // Buckets are power-of-two wide: the estimate is within 2x of the truth.
  EXPECT_GE(hist.percentile_nanos(0.50), 512.0);
  EXPECT_LE(hist.percentile_nanos(0.50), 2048.0);
  EXPECT_GE(hist.percentile_nanos(0.99), 524288.0);
  EXPECT_LE(hist.percentile_nanos(0.99), 2097152.0);
  EXPECT_DOUBLE_EQ(hist.percentile_nanos(0.0), hist.percentile_nanos(0.01));
}

TEST(Metrics, EmptyHistogramReportsZero) {
  obs::LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.percentile_nanos(0.5), 0.0);
  EXPECT_EQ(hist.mean_nanos(), 0.0);
}

TEST(Metrics, EmptyHistogramQuantileEdgesAreZero) {
  obs::LatencyHistogram hist;
  EXPECT_EQ(hist.percentile_nanos(0.0), 0.0);
  EXPECT_EQ(hist.percentile_nanos(1.0), 0.0);
  EXPECT_EQ(hist.percentile_nanos(-3.0), 0.0);
  EXPECT_EQ(hist.percentile_nanos(42.0), 0.0);
}

TEST(Metrics, SingleSampleHistogramAgreesAtEveryQuantile) {
  obs::LatencyHistogram hist;
  hist.record(5000);  // bucket [4096, 8192)
  const double estimate = hist.percentile_nanos(0.5);
  EXPECT_GE(estimate, 4096.0);
  EXPECT_LE(estimate, 8192.0);
  // With one sample every quantile — including the edges — must agree.
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(hist.percentile_nanos(q), estimate) << "q=" << q;
}

TEST(Metrics, QuantileEdgesPickSmallestAndLargestBuckets) {
  obs::LatencyHistogram hist;
  hist.record(100);      // bucket [64, 128)
  hist.record(1000000);  // bucket [524288, 1048576)
  const double low = hist.percentile_nanos(0.0);
  const double high = hist.percentile_nanos(1.0);
  EXPECT_GE(low, 64.0);
  EXPECT_LE(low, 128.0);
  EXPECT_GE(high, 524288.0);
  EXPECT_LE(high, 1048576.0);
  // Out-of-range q clamps to the same edges rather than misbehaving.
  EXPECT_DOUBLE_EQ(hist.percentile_nanos(-1.0), low);
  EXPECT_DOUBLE_EQ(hist.percentile_nanos(2.0), high);
}

TEST(Metrics, ZeroNanosecondSampleLandsInBucketZero) {
  obs::LatencyHistogram hist;
  hist.record(0);
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.bucket_count(0), 1u);
  EXPECT_GE(hist.percentile_nanos(0.5), 0.0);
  EXPECT_LE(hist.percentile_nanos(0.5), 2.0);
}

TEST(Metrics, ReportMentionsEveryMetric) {
  obs::MetricsRegistry registry;
  registry.counter("alpha").inc(3);
  registry.histogram("lat").record(100);
  const std::string report = registry.report();
  EXPECT_NE(report.find("alpha 3"), std::string::npos);
  EXPECT_NE(report.find("lat{"), std::string::npos);
}

// ------------------------------------------------------------------ Snapshot

TEST(Snapshot, RoundTripEqualsInMemoryOracle) {
  const oracle::PathOracle built = small_oracle();
  const auto bytes = serialize_oracle(built);
  const oracle::PathOracle back = deserialize_oracle(bytes);
  EXPECT_EQ(back.num_vertices(), built.num_vertices());
  EXPECT_EQ(back.epsilon(), built.epsilon());
  for (std::size_t v = 0; v < built.num_vertices(); ++v)
    EXPECT_EQ(oracle::serialize_label(back.label(static_cast<Vertex>(v))),
              oracle::serialize_label(built.label(static_cast<Vertex>(v))))
        << "label " << v;
  // Bit-identical query answers, not just approximately equal.
  for (Vertex u = 0; u < built.num_vertices(); u += 5)
    for (Vertex v = 1; v < built.num_vertices(); v += 7)
      EXPECT_EQ(back.query(u, v), built.query(u, v));
}

TEST(Snapshot, PeekReadsHeaderOnly) {
  const oracle::PathOracle built = small_oracle(60, 0.5);
  const auto bytes = serialize_oracle(built);
  const SnapshotInfo info = peek_snapshot(bytes, bytes.size());
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(info.epsilon, 0.5);
  EXPECT_EQ(info.num_vertices, 60u);
}

TEST(Snapshot, PeekRejectsCountsThatWrapPastTheFileSize) {
  // A header for a (sparse) file of 3 * 2^62 bytes whose section sizes sum
  // to 2^64 more than that: each count alone fits the file, but the sum
  // wraps to exactly the file size. Believing it would allocate exabytes.
  const std::uint64_t file_size = std::uint64_t{3} << 62;
  const std::uint64_t n = (std::uint64_t{3} << 59) - 11;
  const std::uint64_t parts = std::uint64_t{1} << 58;
  const std::uint64_t conns = std::uint64_t{1} << 59;
  ASSERT_EQ(56 + 8 * (n + 1) + 16 * (parts + 1) + 24 * conns + 8, file_size);
  std::uint64_t magic = 0;
  std::memcpy(&magic, "PSEPSNAP", 8);
  const std::uint64_t head[] = {magic, kSnapshotVersion,
                                std::bit_cast<std::uint64_t>(0.5),
                                n,  // vertices
                                0,  // decomposition nodes
                                parts, conns};
  EXPECT_THROW(
      peek_snapshot(std::span(reinterpret_cast<const std::uint8_t*>(head),
                              sizeof(head)),
                    file_size),
      std::runtime_error);
}

TEST(Snapshot, SaveLoadFileRoundTrip) {
  const oracle::PathOracle built = small_oracle();
  const std::string path = ::testing::TempDir() + "pathsep_test.snapshot";
  save_snapshot(built, path);
  const oracle::PathOracle loaded = load_snapshot(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.num_vertices(), built.num_vertices());
  for (Vertex u = 0; u < built.num_vertices(); u += 3)
    for (Vertex v = 2; v < built.num_vertices(); v += 11)
      EXPECT_EQ(loaded.query(u, v), built.query(u, v));
}

TEST(Snapshot, CorruptMagicVersionChecksumAndTruncationThrow) {
  const auto bytes = serialize_oracle(small_oracle(40));
  {
    auto bad = bytes;
    bad[0] ^= 0xff;
    EXPECT_THROW(deserialize_oracle(bad), std::runtime_error);
    EXPECT_THROW(peek_snapshot(bad, bad.size()), std::runtime_error);
  }
  {
    auto bad = bytes;
    bad[8] += 1;  // version varint
    EXPECT_THROW(deserialize_oracle(bad), std::runtime_error);
  }
  {
    auto bad = bytes;
    bad[bytes.size() / 2] ^= 0x10;  // body flip breaks the checksum
    EXPECT_THROW(deserialize_oracle(bad), std::runtime_error);
  }
  {
    auto bad = bytes;
    bad.resize(bad.size() - 9);
    EXPECT_THROW(deserialize_oracle(bad), std::runtime_error);
  }
  EXPECT_THROW(load_snapshot("/nonexistent/pathsep.snapshot"),
               std::runtime_error);
}

TEST(Snapshot, NonMonotoneOffsetsRejected) {
  // Vertex 0's part range claims to end before it starts; adopting the
  // arena must throw before any label is read.
  const oracle::PathOracle built = small_oracle(40);
  oracle::LabelArena labels = built.arena();
  labels.part_offsets[1] = labels.part_offsets[2] + 1;
  EXPECT_THROW(oracle::PathOracle(std::move(labels), built.epsilon()),
               std::runtime_error);
}

/// The label arena builds wrote before labels were pruned: every unpruned
/// compute_connections list along each vertex's chain.
oracle::LabelArena unpruned_arena(const hierarchy::DecompositionTree& tree,
                                  double epsilon) {
  std::vector<oracle::NodeConnections> per_node;
  for (const hierarchy::DecompositionNode& node : tree.nodes())
    per_node.push_back(oracle::compute_connections(node, epsilon));
  oracle::LabelArena arena;
  for (Vertex v = 0; v < tree.root_graph().num_vertices(); ++v) {
    for (const auto& [node, local] : tree.chain(v)) {
      const oracle::NodeConnections& nc =
          per_node[static_cast<std::size_t>(node)];
      for (std::size_t pi = 0; pi < nc.paths.size(); ++pi)
        if (const auto list = nc.list(pi, local); !list.empty())
          arena.add_part(node, static_cast<std::int64_t>(pi),
                         tree.node(node).depth, list);
    }
    arena.part_offsets.push_back(arena.num_parts());
  }
  return arena;
}

TEST(Snapshot, DominatedConnectionsStillLoadAndAnswerTheSame) {
  // Files written before labels were pruned hold dominated connections. The
  // loader must not require dominance-freedom, and the sweep must not
  // assume it: such labels answer as the pruned ones do.
  const auto load_unpruned = [](const hierarchy::DecompositionTree& tree,
                                const oracle::PathOracle& built) {
    oracle::LabelArena unpruned = unpruned_arena(tree, built.epsilon());
    EXPECT_GT(unpruned.num_connections(), built.arena().num_connections());
    EXPECT_EQ(unpruned.num_parts(), built.arena().num_parts());
    EXPECT_NO_THROW(oracle::validate_arena(unpruned));
    EXPECT_THROW(check::audit_built_labels(unpruned, tree),
                 check::CheckFailure);
    return deserialize_oracle(serialize_oracle(
        oracle::PathOracle(std::move(unpruned), built.epsilon())));
  };
  {
    // Unit grid: every sum is exact, so the answers are bit-identical.
    const graph::GridGraph gg = graph::grid(16, 16);
    const hierarchy::DecompositionTree tree(
        gg.graph, separator::GridLineSeparator(16, 16));
    const oracle::PathOracle built(tree, 0.25);
    const oracle::PathOracle loaded = load_unpruned(tree, built);
    for (Vertex u = 0; u < built.num_vertices(); ++u)
      for (Vertex v = 0; v < built.num_vertices(); ++v)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(loaded.query(u, v)),
                  std::bit_cast<std::uint64_t>(built.query(u, v)))
            << u << "->" << v;
  }
  {
    // Real weights: the unpruned labels read every pruned candidate and
    // more, so they never answer above the pruned ones, and only rounding
    // separates the two minima.
    const oracle::PathOracle built = small_oracle(200, 0.25);
    util::Rng rng(7);
    const auto gg = graph::random_apollonian(200, rng);
    const hierarchy::DecompositionTree tree(
        gg.graph, separator::PlanarCycleSeparator(gg.positions));
    const oracle::PathOracle loaded = load_unpruned(tree, built);
    for (Vertex u = 0; u < built.num_vertices(); ++u)
      for (Vertex v = 0; v < built.num_vertices(); ++v) {
        const Weight old_answer = loaded.query(u, v);
        const Weight answer = built.query(u, v);
        ASSERT_LE(old_answer, answer) << u << "->" << v;
        ASSERT_LE(answer - old_answer, 1e-12 * old_answer) << u << "->" << v;
      }
  }
}

/// A hand-built, well-checksummed one-vertex snapshot: a single part on
/// (node, path 0) holding one on-path connection. The checksum is no
/// defence against forgery, so only the loader's own bounds can stop it.
std::vector<std::uint8_t> forged_snapshot(std::int32_t node,
                                          std::uint64_t num_nodes) {
  std::uint64_t magic = 0;
  std::memcpy(&magic, "PSEPSNAP", 8);
  const std::uint64_t words[] = {
      magic, kSnapshotVersion, std::bit_cast<std::uint64_t>(0.5),
      1, num_nodes, 1, 1,                       // n, nodes, parts, conns
      0, 1,                                     // part_offsets
      static_cast<std::uint32_t>(node), 0,      // part {node, path 0, begin 0}
      0, 1,                                     // sentinel {0, 0, 1}
      0, 0,                                     // hot {prefix 0, dist 0}
      std::uint64_t{graph::kInvalidVertex} << 32,  // cold {0, no hop}
  };
  std::vector<std::uint8_t> bytes(sizeof(words) + 8);
  std::memcpy(bytes.data(), words, sizeof(words));
  const std::uint64_t sum = snapshot_checksum(
      std::span<const std::uint8_t>(bytes).first(sizeof(words)));
  std::memcpy(bytes.data() + sizeof(words), &sum, 8);
  return bytes;
}

/// Deserializing `bytes` (in memory and from a file) throws
/// std::runtime_error whose message contains `why`.
void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     const std::string& why) {
  // One file per test: ctest runs the forged-file tests as parallel
  // processes, which must not overwrite each other's file.
  const std::string path =
      ::testing::TempDir() + "pathsep_forged_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".snapshot";
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  for (const bool from_file : {false, true}) {
    try {
      if (from_file)
        (void)load_snapshot(path);
      else
        (void)deserialize_oracle(bytes);
      ADD_FAILURE() << "forged snapshot accepted (from_file=" << from_file
                    << ")";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(why), std::string::npos)
          << error.what();
    }
  }
  std::remove(path.c_str());
}

TEST(Snapshot, ForgeryHelperBuildsALoadableFile) {
  // Control for the two forgeries below: with an honest node id the same
  // hand-built file loads, so their rejections are the node bound's doing.
  const oracle::PathOracle loaded = deserialize_oracle(forged_snapshot(0, 1));
  EXPECT_EQ(loaded.num_vertices(), 1u);
  EXPECT_EQ(loaded.query(0, 0), 0.0);
}

TEST(Snapshot, ForgedNegativeNodeIdRejected) {
  // A node id of -1000000 (what a wrapped int32 node delta produced) once
  // indexed the level map out of bounds and crashed the loader.
  expect_rejected(forged_snapshot(-1000000, 1), "node");
}

TEST(Snapshot, ForgedHugeNodeIdRejectedWithoutAllocating) {
  // Node 0x7ffffff0 once sized an 8 GB level map from a file of a few dozen
  // bytes. The header's node count bounds every part's node, and the
  // vertex count (which the file pays 8 bytes each for) bounds the node
  // count, so both lies are rejected before anything is allocated.
  expect_rejected(forged_snapshot(0x7ffffff0, 1), "node");
  expect_rejected(forged_snapshot(0x7ffffff0, 0x7ffffff1), "node count");
}

TEST(Snapshot, Version1FilesAskForARebuild) {
  std::vector<std::uint8_t> v1 = {'P', 'S', 'E', 'P', 'S', 'N', 'A', 'P', 1};
  v1.resize(64, 0);
  expect_rejected(v1, "rebuild");
}

TEST(Snapshot, Version2FilesAskForARebuild) {
  // A version-2 file is this format without depths in its part headers:
  // the walk could not stop where chains diverge, so it is not read.
  std::vector<std::uint8_t> v2 =
      serialize_oracle(small_oracle(40));
  v2[8] = 2;
  expect_rejected(v2, "rebuild");
}

TEST(Zipf, SamplesAreSkewedTowardLowRanks) {
  util::Rng rng(13);
  const util::ZipfSampler zipf(1000, 1.1);
  std::size_t low = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i)
    if (zipf.sample(rng) < 10) ++low;
  // Top-10 mass under s=1.1 over 1000 ranks is ~40%; uniform would be 1%.
  EXPECT_GT(low, kSamples / 5);
  const util::ZipfSampler uniform(1000, 0.0);
  std::size_t low_uniform = 0;
  for (int i = 0; i < kSamples; ++i)
    if (uniform.sample(rng) < 10) ++low_uniform;
  EXPECT_LT(low_uniform, kSamples / 20);
}

}  // namespace
}  // namespace pathsep::service
