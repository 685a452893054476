// The shard-per-core serving stack: the claimable frames and the pending
// words that hand them out (stale tickets, a stale claim across a slot's
// reuse, exactly-once claims, slot exhaustion, a busy worker's pending
// word, a busy owner), the
// ShardedEngine's exactness and determinism across shard counts, its null
// snapshot check, its worker placement (one CPU each, inside the process
// mask), its cache and metrics contract, and the binary wire protocol with
// the epoll front-end (hostile and split frames included, and an accept
// loop that idles when the process runs out of file descriptors). Runs
// under the `service` label, so the TSan leg of scripts/check.sh executes
// every concurrent scenario here with race detection on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "hierarchy/decomposition_tree.hpp"
#include "obs/export.hpp"
#include "separator/finders.hpp"
#include "service/net.hpp"
#include "service/frame_table.hpp"
#include "service/net_server.hpp"
#include "service/sharded_engine.hpp"
#include "util/rng.hpp"

#if defined(__linux__)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace pathsep::service {
namespace {

using graph::Vertex;
using graph::Weight;

// ------------------------------------------------------------ FrameTable

}  // namespace

/// Runs a claim and an open() step by step, so a test can interleave a
/// stale claimer with the reuse of its slot deterministically.
struct FrameTableTestPeer {
  /// A claim's first step: the claim word it loads.
  static std::uint64_t claim_word(FrameTable& table, FrameTable::Ticket ticket,
                                  std::size_t owner) {
    return table.frames_[ticket.slot].claims[owner].word.load(
        std::memory_order_acquire);
  }
  /// The rest of the claim, from a word loaded earlier.
  static bool claim_from(FrameTable& table, FrameTable::Ticket ticket,
                         std::size_t owner, std::uint64_t word,
                         FrameTable::Chunk& chunk) {
    return table.claim(ticket, owner, word, chunk);
  }
  /// open() up to its publish: a slot is taken and its slices rewritten
  /// for a frame of `size` pairs. Returns the slot's index, or -1.
  template <typename OwnerOf>
  static int open_unpublished(FrameTable& table, std::size_t size,
                              OwnerOf owner_of) {
    FrameTable::Frame* const frame = table.acquire();
    if (frame == nullptr) return -1;
    std::uint64_t touched = 0;
    table.bucket(*frame, size, owner_of, touched);
    return static_cast<int>(frame - table.frames_.get());
  }
  /// open()'s last step for a slot open_unpublished() took.
  static FrameTable::Ticket publish(FrameTable& table, int slot,
                                    std::span<const Query> queries,
                                    Weight* results,
                                    std::atomic<std::uint32_t>* remaining) {
    return table.publish(table.frames_[slot], queries, results, remaining);
  }
};

namespace {

/// Claims every chunk of `owner`'s slice of `ticket`'s frame; returns the
/// pair indices claimed, in claim order.
std::vector<std::uint32_t> claim_all(FrameTable& table,
                                     FrameTable::Ticket ticket,
                                     std::size_t owner) {
  std::vector<std::uint32_t> indices;
  FrameTable::Chunk chunk;
  while (table.claim(ticket, owner, chunk)) {
    EXPECT_GE(chunk.count, 1u);
    EXPECT_LE(chunk.count, FrameTable::kChunk);
    indices.insert(indices.end(), chunk.order, chunk.order + chunk.count);
  }
  return indices;
}

// A ticket claims only its own frame: once the frame completed, or its slot
// carries a newer frame, the old ticket claims nothing. ticket() rebuilds
// the ticket of the frame a slot carries now, and one for a slot never
// published claims nothing.
TEST(FrameTable, StaleTicketsClaimNothing) {
  FrameTable table(/*slots=*/1, /*owners=*/2);
  FrameTable::Chunk chunk;
  EXPECT_FALSE(table.claim(table.ticket(0, 0), 0, chunk));
  const auto owner_of = [](std::size_t i) { return i % 3 == 0 ? 1u : 0u; };
  std::vector<Query> first(40, Query{1, 2});
  std::vector<Weight> first_results(first.size());
  std::atomic<std::uint32_t> first_remaining{40};
  std::uint64_t touched = 0;
  const std::optional<FrameTable::Ticket> old = table.open(
      first, first_results.data(), &first_remaining, owner_of, touched);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(touched, 3u);
  EXPECT_EQ(table.ticket(old->slot, 1).gen, old->gen);

  // Each slice holds exactly its owner's indices, in ascending order.
  const std::vector<std::uint32_t> zero = claim_all(table, *old, 0);
  const std::vector<std::uint32_t> one = claim_all(table, *old, 1);
  EXPECT_EQ(zero.size() + one.size(), first.size());
  EXPECT_TRUE(std::is_sorted(zero.begin(), zero.end()));
  for (const std::uint32_t i : zero) EXPECT_EQ(owner_of(i), 0u);
  for (const std::uint32_t i : one) EXPECT_EQ(owner_of(i), 1u);

  // The only slot is busy until the frame is counted done.
  std::vector<Query> second(20, Query{3, 4});
  std::vector<Weight> second_results(second.size());
  std::atomic<std::uint32_t> second_remaining{20};
  EXPECT_FALSE(table
                   .open(second, second_results.data(), &second_remaining,
                         owner_of, touched)
                   .has_value());
  table.finish(*old, 30);
  EXPECT_EQ(first_remaining.load(), 40u) << "completed before every count";
  table.finish(*old, 10);
  EXPECT_EQ(first_remaining.load(), 0u);

  // Completed: nothing left to claim.
  EXPECT_FALSE(table.claim(*old, 0, chunk));
  EXPECT_FALSE(table.claim(*old, 1, chunk));

  // Reused: the old ticket names the slot but not the generation.
  const std::optional<FrameTable::Ticket> fresh = table.open(
      second, second_results.data(), &second_remaining, owner_of, touched);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->slot, old->slot);
  EXPECT_NE(fresh->gen, old->gen);
  EXPECT_EQ(table.ticket(old->slot, 0).gen, fresh->gen);
  EXPECT_FALSE(table.claim(*old, 0, chunk));
  EXPECT_FALSE(table.claim(*old, 1, chunk));
  ASSERT_TRUE(table.claim(*fresh, 0, chunk));
  EXPECT_EQ(chunk.queries, second.data());
  EXPECT_EQ(chunk.results, second_results.data());
  EXPECT_EQ(first_remaining.load(), 0u) << "the old caller's counter moved";
}

// A claimer that loaded its claim word before its frame completed, and reads
// the slice bounds only after the slot's next use rewrote them, claims
// nothing: its old, exhausted cursor would fit the new, longer slice, but the
// completed frame's claim words were closed before the slot was freed.
TEST(FrameTable, StaleClaimAcrossASlotReuseClaimsNothing) {
  FrameTable table(/*slots=*/1, /*owners=*/2);
  const auto owner_of = [](std::size_t i) { return i % 3 == 0 ? 1u : 0u; };
  std::vector<Query> first(40, Query{1, 2});
  std::vector<Weight> first_results(first.size());
  std::atomic<std::uint32_t> first_remaining{40};
  std::uint64_t touched = 0;
  const std::optional<FrameTable::Ticket> old = table.open(
      first, first_results.data(), &first_remaining, owner_of, touched);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(claim_all(table, *old, 0).size(), 26u);
  EXPECT_EQ(claim_all(table, *old, 1).size(), 14u);

  // The stale claimer's first step, while the frame is still in flight.
  const std::uint64_t word = FrameTableTestPeer::claim_word(table, *old, 0);
  table.finish(*old, 40);
  ASSERT_EQ(first_remaining.load(), 0u);

  // The slot's next use: 200 pairs, all owner 0's, bucketed but not yet
  // published.
  std::vector<Query> second(200, Query{3, 4});
  std::vector<Weight> second_results(second.size(), -1.0);
  std::atomic<std::uint32_t> second_remaining{200};
  const int slot = FrameTableTestPeer::open_unpublished(
      table, second.size(), [](std::size_t) { return 0u; });
  ASSERT_EQ(slot, static_cast<int>(old->slot));

  // The stale claimer resumes against the rewritten bounds.
  FrameTable::Chunk chunk;
  EXPECT_FALSE(FrameTableTestPeer::claim_from(table, *old, 0, word, chunk))
      << "a completed frame's ticket claimed a chunk of the slot's next use";
  EXPECT_FALSE(table.claim(*old, 0, chunk));
  EXPECT_FALSE(table.claim(*old, 1, chunk));

  // Published, the new frame's slice is whole and completes only its
  // caller.
  const FrameTable::Ticket fresh = FrameTableTestPeer::publish(
      table, slot, second, second_results.data(), &second_remaining);
  EXPECT_NE(fresh.gen, old->gen);
  EXPECT_EQ(claim_all(table, fresh, 0).size(), second.size());
  EXPECT_TRUE(claim_all(table, fresh, 1).empty());
  table.finish(fresh, 200);
  EXPECT_EQ(second_remaining.load(), 0u);
  EXPECT_EQ(first_remaining.load(), 0u) << "the old caller's counter moved";
}

// F5 from the table's side: a bit that reached its owner before its frame
// was published (the slot taken and bucketed, publish() not yet run) gives
// a ticket that claims nothing, for a slot never used and for one whose
// last frame completed alike. Once the frame is published, a ticket rebuilt
// from any owner's claim word names it and claims every chunk of every
// slice exactly once; the early ticket still claims nothing.
TEST(FrameTable, TicketBeforePublishClaimsNothingAndAfterClaimsAll) {
  constexpr std::size_t kOwners = 3;
  constexpr std::size_t kSize = 200;
  FrameTable table(/*slots=*/1, kOwners);
  const auto owner_of = [](std::size_t i) { return i % kOwners; };
  const std::vector<Query> queries(kSize, Query{1, 2});
  std::vector<Weight> results(kSize);
  FrameTable::Chunk chunk;
  for (int use = 0; use < 2; ++use) {
    std::atomic<std::uint32_t> remaining{kSize};
    const int slot =
        FrameTableTestPeer::open_unpublished(table, kSize, owner_of);
    ASSERT_EQ(slot, 0);
    const FrameTable::Ticket early = table.ticket(slot, 0);
    for (std::size_t owner = 0; owner < kOwners; ++owner)
      EXPECT_FALSE(table.claim(early, owner, chunk)) << "use " << use;

    FrameTableTestPeer::publish(table, slot, queries, results.data(),
                                &remaining);
    EXPECT_FALSE(table.claim(early, 0, chunk)) << "use " << use;
    // Owner 1's rebuilt ticket claims its own slice, then the others.
    const FrameTable::Ticket fresh = table.ticket(slot, 1);
    std::vector<int> claimed(kSize, 0);
    for (std::size_t k = 1; k <= kOwners; ++k)
      for (const std::uint32_t i : claim_all(table, fresh, k % kOwners)) {
        ++claimed[i];
        EXPECT_EQ(owner_of(i), k % kOwners);
      }
    EXPECT_EQ(std::count(claimed.begin(), claimed.end(), 1),
              static_cast<std::ptrdiff_t>(kSize))
        << "use " << use;
    table.finish(fresh, kSize);
    EXPECT_EQ(remaining.load(), 0u);
  }
}

// Threads that each take the slot bits of their own pending word, rebuild
// each bit's ticket and claim their own slice first and then any other
// slice, as shard workers do, answer every index of every frame exactly
// once, and each frame completes exactly when its last index is counted.
// With two slots for 40 frames most bits a claimer takes are stale (their
// frame was finished by the others) or name the slot's next frame.
TEST(FrameTable, ConcurrentClaimersAnswerEveryIndexExactlyOnce) {
  constexpr std::size_t kOwners = 4;
  constexpr std::size_t kFrames = 40;
  constexpr std::size_t kSize = 3000;
  FrameTable table(/*slots=*/2, kOwners);
  // Skewed: owner 0 holds half of every frame.
  const auto owner_of = [](std::size_t i) {
    return i % 2 == 0 ? std::size_t{0} : 1 + i % 3;
  };
  const std::vector<Query> queries(kSize);
  std::vector<std::atomic<std::uint32_t>> answered(kFrames * kSize);
  std::vector<Weight> results(kFrames * kSize, -1.0);
  std::vector<std::atomic<std::uint32_t>> remaining(kFrames);
  std::atomic<std::uint64_t> pending[kOwners] = {};  // bit k: slot k
  std::atomic<bool> stop{false};

  std::vector<std::thread> claimers;
  for (std::size_t self = 0; self < kOwners; ++self)
    claimers.emplace_back([&, self] {
      while (!stop.load(std::memory_order_acquire)) {
        std::uint64_t bits =
            pending[self].exchange(0, std::memory_order_acquire);
        if (bits == 0) {
          std::this_thread::yield();
          continue;
        }
        for (; bits != 0; bits &= bits - 1) {
          const FrameTable::Ticket ticket = table.ticket(
              static_cast<std::size_t>(std::countr_zero(bits)), self);
          std::uint32_t count = 0;
          for (std::size_t k = 0; k < kOwners; ++k) {
            FrameTable::Chunk chunk;
            while (table.claim(ticket, (self + k) % kOwners, chunk)) {
              // Each frame answers into its own kSize-entry block.
              const auto frame = static_cast<std::size_t>(
                  (chunk.results - results.data()) / kSize);
              for (std::uint32_t j = 0; j < chunk.count; ++j) {
                const std::uint32_t i = chunk.order[j];
                answered[frame * kSize + i].fetch_add(1);
                chunk.results[i] = static_cast<Weight>(i);
              }
              count += chunk.count;
            }
          }
          if (count != 0) table.finish(ticket, count);
        }
      }
    });

  for (std::size_t f = 0; f < kFrames; ++f) {
    remaining[f].store(kSize);
    std::uint64_t touched = 0;
    std::optional<FrameTable::Ticket> ticket;
    while (!(ticket = table.open(queries, results.data() + f * kSize,
                                 &remaining[f], owner_of, touched)))
      std::this_thread::yield();  // both slots in flight
    EXPECT_EQ(touched, 0xfu);
    // Release, after open() published the frame (F5).
    for (std::size_t s = 0; s < kOwners; ++s)
      pending[s].fetch_or(std::uint64_t{1} << ticket->slot,
                          std::memory_order_release);
  }
  for (std::size_t f = 0; f < kFrames; ++f) {
    std::uint32_t left;
    while ((left = remaining[f].load(std::memory_order_acquire)) != 0)
      remaining[f].wait(left, std::memory_order_acquire);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& claimer : claimers) claimer.join();
  for (std::size_t f = 0; f < kFrames; ++f)
    for (std::size_t i = 0; i < kSize; ++i) {
      ASSERT_EQ(answered[f * kSize + i].load(), 1u)
          << "frame " << f << ", index " << i;
      ASSERT_EQ(results[f * kSize + i], static_cast<Weight>(i));
    }
}

// ---------------------------------------------------------------- Wire codec

TEST(Wire, ScalarsRoundTripLittleEndian) {
  std::vector<std::uint8_t> buf;
  wire::append_u32(buf, 0x01020304u);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x04u);  // little-endian on the wire
  EXPECT_EQ(buf[3], 0x01u);
  EXPECT_EQ(wire::read_u32(buf.data()), 0x01020304u);

  buf.clear();
  wire::append_f64(buf, 1234.5625);
  ASSERT_EQ(buf.size(), 8u);
  EXPECT_EQ(wire::read_f64(buf.data()), 1234.5625);
  buf.clear();
  wire::append_f64(buf, -0.0);
  EXPECT_EQ(wire::read_f64(buf.data()), 0.0);
}

TEST(Wire, RequestFramesRoundTripThroughTheParser) {
  const std::vector<Query> queries = {{1, 2}, {7, 7}, {0, 41}};
  std::vector<std::uint8_t> buf;
  wire::append_request(buf, 0xDEADBEEFu, queries);
  // Two frames back-to-back: the parser must consume exactly one.
  wire::append_request(buf, 5u, std::vector<Query>{{9, 9}});

  wire::ParsedRequest request;
  std::vector<Query> parsed;
  ASSERT_EQ(wire::parse_request(buf, 0, 42, request, parsed),
            wire::ParseStatus::kRequest);
  EXPECT_EQ(request.request_id, 0xDEADBEEFu);
  EXPECT_EQ(request.frame_bytes, 4u + 4u + 3u * 8u);
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[1].u, 7u);
  EXPECT_EQ(parsed[2].v, 41u);

  ASSERT_EQ(wire::parse_request(buf, request.frame_bytes, 42, request, parsed),
            wire::ParseStatus::kRequest);
  EXPECT_EQ(request.request_id, 5u);
  ASSERT_EQ(parsed.size(), 1u);
}

TEST(Wire, ParserFlagsShortAndOversizedFrames) {
  wire::ParsedRequest request;
  std::vector<Query> parsed;

  std::vector<std::uint8_t> partial;
  wire::append_u32(partial, 12);  // header promises 12 payload bytes...
  wire::append_u32(partial, 1);   // ...but only 4 arrived
  EXPECT_EQ(wire::parse_request(partial, 0, 100, request, parsed),
            wire::ParseStatus::kIncomplete);

  std::vector<std::uint8_t> tiny;
  wire::append_u32(tiny, 3);  // below the 4-byte request_id minimum
  EXPECT_EQ(wire::parse_request(tiny, 0, 100, request, parsed),
            wire::ParseStatus::kMalformed);

  std::vector<std::uint8_t> ragged;
  wire::append_u32(ragged, 4 + 7);  // pair section not a multiple of 8
  EXPECT_EQ(wire::parse_request(ragged, 0, 100, request, parsed),
            wire::ParseStatus::kMalformed);

  std::vector<std::uint8_t> huge;
  wire::append_u32(huge,
                   static_cast<std::uint32_t>(wire::kMaxFrameBytes + 12));
  EXPECT_EQ(wire::parse_request(huge, 0, 100, request, parsed),
            wire::ParseStatus::kMalformed);
}

TEST(Wire, ParserRejectsVertexIdsOutsideTheSnapshot) {
  wire::ParsedRequest request;
  std::vector<Query> parsed;
  std::vector<std::uint8_t> buf;
  wire::append_request(buf, 1u, std::vector<Query>{{3, 99}});
  EXPECT_EQ(wire::parse_request(buf, 0, 100, request, parsed),
            wire::ParseStatus::kRequest);
  EXPECT_EQ(wire::parse_request(buf, 0, 99, request, parsed),
            wire::ParseStatus::kMalformed);  // v == num_vertices
  buf.clear();
  wire::append_request(buf, 1u, std::vector<Query>{{0, 1}, {4000000000u, 2}});
  EXPECT_EQ(wire::parse_request(buf, 0, 100, request, parsed),
            wire::ParseStatus::kMalformed);
  // An incomplete frame is never judged by its ids.
  buf.resize(buf.size() - 1);
  EXPECT_EQ(wire::parse_request(buf, 0, 100, request, parsed),
            wire::ParseStatus::kIncomplete);
}

// ------------------------------------------------------------- ShardedEngine

oracle::PathOracle grid_oracle(std::size_t side = 12, double eps = 0.3) {
  graph::GridGraph gg = graph::grid(side, side);
  const hierarchy::DecompositionTree tree(
      gg.graph, separator::GridLineSeparator(side, side));
  return oracle::PathOracle(tree, eps);
}

std::vector<Query> mixed_workload(Vertex n, std::size_t count,
                                  std::uint64_t seed = 29) {
  util::Rng rng(seed);
  std::vector<Query> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<Vertex>(rng.next_below(n));
    const Vertex v =
        i % 16 == 0 ? u : static_cast<Vertex>(rng.next_below(n));
    batch.push_back({u, v});
  }
  return batch;
}

std::uint64_t fnv_digest(const std::vector<Weight>& results) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Weight w : results) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(w));
    std::memcpy(&bits, &w, sizeof(bits));
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (bits >> shift) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::map<std::string, std::uint64_t> counter_family(
    const obs::MetricsRegistry& metrics, const std::string& name) {
  std::map<std::string, std::uint64_t> family;
  for (const obs::MetricSample& sample : metrics.snapshot()) {
    if (sample.kind != obs::MetricKind::kCounter || sample.name != name)
      continue;
    std::string key;
    for (const auto& [label, value] : sample.labels)
      key += label + "=" + value + ";";
    family[key] = sample.counter_value;
  }
  return family;
}

std::uint64_t family_sum(const std::map<std::string, std::uint64_t>& family) {
  std::uint64_t sum = 0;
  for (const auto& [key, value] : family) sum += value;
  return sum;
}

/// Queries the engine's workers answered from other shards' slices:
/// uncached, so each can cost its owner's cache one hit.
std::uint64_t claimed_total(const ShardedEngine& engine) {
  return family_sum(
      counter_family(engine.metrics(), "queries_claimed_total"));
}

// The reference digest is the serial PathOracle::query loop, so every shard
// count is checked against the oracle itself.
TEST(ShardedEngine, MatchesThePooledEngineAtEveryShardCount) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const std::vector<Query> batch =
      mixed_workload(static_cast<Vertex>(snapshot->num_vertices()), 3000);

  std::vector<Weight> expected;
  expected.reserve(batch.size());
  for (const Query& q : batch) expected.push_back(snapshot->query(q.u, q.v));
  const std::uint64_t expected_digest = fnv_digest(expected);

  for (const std::size_t shards : {1u, 2u, 8u}) {
    ShardedEngineOptions opts;
    opts.shards = shards;
    ShardedEngine engine(snapshot, opts);
    EXPECT_EQ(engine.num_shards(), shards);
    const std::vector<Weight> got = engine.query_batch(batch);
    ASSERT_EQ(got.size(), expected.size());
    // Byte-identical across shard counts: partitioning decides who
    // computes, never the answer (the bench cross-checks the same digest).
    EXPECT_EQ(fnv_digest(got), expected_digest) << shards << " shards";
  }
}

#if defined(__linux__)
/// Threads this process runs now.
std::size_t thread_count() {
  std::size_t threads = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++threads;
  return threads;
}

// The engine refuses a null snapshot before any member reads it and before
// any worker starts: no thread is left behind.
TEST(ShardedEngine, NullSnapshotThrowsBeforeAnyWorkerStarts) {
  const std::size_t before = thread_count();
  ShardedEngineOptions opts;
  opts.shards = 4;
  EXPECT_THROW(ShardedEngine(nullptr, opts), std::invalid_argument);
  EXPECT_EQ(thread_count(), before);
}
#endif

// Batches of up to kInlineCutoff queries are answered on the caller's
// thread, which has no result cache; one query more becomes a frame for the
// shard workers, which each own one. Both sides of the cutoff answer
// bit-identically to the oracle, and the cache counters show which side
// answered a repeated frame. One shard, so no other worker claims (and
// answers uncached) part of the frame.
TEST(ShardedEngine, InlineCutoffSplitsCallerThreadFromRings) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const auto n = static_cast<Vertex>(snapshot->num_vertices());
  constexpr std::size_t kCutoff = ShardedEngine::kInlineCutoff;
  const std::vector<Query> batch = mixed_workload(n, kCutoff + 1, 31);

  ShardedEngineOptions opts;
  opts.shards = 1;
  opts.cache_capacity = 1 << 12;
  for (const std::size_t size : {std::size_t{1}, kCutoff, kCutoff + 1}) {
    ShardedEngine engine(snapshot, opts);
    const std::span<const Query> frame(batch.data(), size);
    for (int round = 0; round < 2; ++round) {
      const std::vector<Weight> got = engine.query_batch(frame);
      for (std::size_t i = 0; i < size; ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(
                      snapshot->query(frame[i].u, frame[i].v)))
            << size << "-query frame, query " << i;
    }
    const std::uint64_t hits =
        family_sum(counter_family(engine.metrics(), "cache_hits"));
    const std::uint64_t misses =
        family_sum(counter_family(engine.metrics(), "cache_misses"));
    EXPECT_EQ(hits + misses, 2 * size);
    if (size <= kCutoff)
      EXPECT_EQ(hits, 0u) << size << "-query frame went to the workers";
    else  // the repeat is answered from the shards' caches
      EXPECT_GE(hits, size) << size << "-query frame was answered inline";
  }

  // shard_of is symmetric, so both directions of a pair share an owner.
  opts.shards = 2;
  ShardedEngine engine(snapshot, opts);
  EXPECT_EQ(engine.shard_of(3, 17), engine.shard_of(17, 3));
}

TEST(ShardedEngine, SubmitBatchCompletesAsynchronously) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const auto n = static_cast<Vertex>(snapshot->num_vertices());
  const std::vector<Query> batch = mixed_workload(n, 512, 37);

  ShardedEngineOptions opts;
  opts.shards = 2;
  ShardedEngine engine(snapshot, opts);
  const std::vector<Weight> expected = engine.query_batch(batch);

  std::vector<Weight> results(batch.size());
  std::atomic<std::uint32_t> remaining{
      static_cast<std::uint32_t>(batch.size())};
  engine.submit_batch(batch, results.data(), &remaining);
  std::uint32_t left;
  while ((left = remaining.load(std::memory_order_acquire)) != 0)
    remaining.wait(left, std::memory_order_acquire);
  EXPECT_EQ(fnv_digest(results), fnv_digest(expected));
}

// More frames in flight than the engine has slots: the overflow is
// answered on the submitting thread (counted in shard_intake_full_total)
// and every answer stays exact. The one worker is first handed a frame of
// 500000 pairs (a long job), so the small frames submitted right after it
// stay in flight until the slots run out.
TEST(ShardedEngine, FrameSlotsRunOutFallBackInlineAndStayExact) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const auto n = static_cast<Vertex>(snapshot->num_vertices());
  ShardedEngine engine(snapshot, {.shards = 1});

  const std::vector<Query> long_frame = mixed_workload(n, 500000, 41);
  std::vector<Weight> long_results(long_frame.size());
  std::atomic<std::uint32_t> long_remaining{
      static_cast<std::uint32_t>(long_frame.size())};
  engine.submit_batch(long_frame, long_results.data(), &long_remaining);

  const std::vector<Query> batch =
      mixed_workload(n, ShardedEngine::kInlineCutoff + 1, 42);
  std::vector<Weight> expected;
  for (const Query& q : batch) expected.push_back(snapshot->query(q.u, q.v));
  constexpr std::size_t kFrames = ShardedEngine::kFrameSlots + 32;
  std::vector<std::vector<Weight>> results(kFrames,
                                           std::vector<Weight>(batch.size()));
  std::vector<std::atomic<std::uint32_t>> remaining(kFrames);
  for (std::size_t f = 0; f < kFrames; ++f) {
    remaining[f].store(static_cast<std::uint32_t>(batch.size()));
    engine.submit_batch(batch, results[f].data(), &remaining[f]);
  }
  for (std::size_t f = 0; f < kFrames; ++f) {
    std::uint32_t left;
    while ((left = remaining[f].load(std::memory_order_acquire)) != 0)
      remaining[f].wait(left, std::memory_order_acquire);
    ASSERT_EQ(fnv_digest(results[f]), fnv_digest(expected)) << "frame " << f;
  }
  std::uint32_t left;
  while ((left = long_remaining.load(std::memory_order_acquire)) != 0)
    long_remaining.wait(left, std::memory_order_acquire);
  for (std::size_t i = 0; i < long_frame.size(); i += 997)
    ASSERT_EQ(long_results[i],
              snapshot->query(long_frame[i].u, long_frame[i].v));

  const std::uint64_t inline_answers = family_sum(
      counter_family(engine.metrics(), "shard_intake_full_total"));
  EXPECT_GT(inline_answers, 0u);
  EXPECT_EQ(inline_answers % batch.size(), 0u)
      << "a frame without a slot is answered whole on the caller's thread";
  EXPECT_EQ(family_sum(counter_family(engine.metrics(), "queries_total")),
            long_frame.size() + kFrames * batch.size());
}

// A busy worker's pending word cannot overflow, and its stale bits claim
// nothing. Worker 1 is handed a long frame that only shard 1 owns;
// meanwhile 3 × kFrameSlots frames, each touching both shards, go in
// asynchronously (at most half the slots in flight, so none runs out of
// slots). Worker 0 answers each whole, claiming shard 1's slice, while
// their slots' bits pile up in worker 1's word: no query falls back to the
// dispatcher (shard_intake_full_total stays 0) and every answer is
// bit-identical to the oracle. A last frame only shard 1 owns is answered
// by worker 1 alone once it returns, so by then it has taken the stale
// bits, and queries_total still counts every query once. Returns whether
// worker 1 was still busy after the two-shard frames; only then did bits
// pile up.
bool busy_worker_round(
    const std::shared_ptr<const oracle::PathOracle>& snapshot) {
  const auto n = static_cast<Vertex>(snapshot->num_vertices());
  ShardedEngine engine(snapshot, {.shards = 2});

  std::vector<Query> owned;  // pairs of shard 1
  for (const Query& q : mixed_workload(n, 4000, 53))
    if (engine.shard_of(q.u, q.v) == 1) owned.push_back(q);
  EXPECT_GT(owned.size(), ShardedEngine::kInlineCutoff);
  if (owned.size() <= ShardedEngine::kInlineCutoff) return true;
  std::vector<Query> long_frame;
  while (long_frame.size() < 1000000)
    long_frame.push_back(owned[long_frame.size() % owned.size()]);
  std::vector<Weight> long_results(long_frame.size());
  std::atomic<std::uint32_t> long_remaining{
      static_cast<std::uint32_t>(long_frame.size())};
  engine.submit_batch(long_frame, long_results.data(), &long_remaining);

  const std::vector<Query> batch =
      mixed_workload(n, ShardedEngine::kInlineCutoff + 1, 59);
  std::set<std::size_t> shards;
  for (const Query& q : batch) shards.insert(engine.shard_of(q.u, q.v));
  EXPECT_EQ(shards.size(), 2u);
  std::vector<Weight> expected;
  for (const Query& q : batch) expected.push_back(snapshot->query(q.u, q.v));
  constexpr std::size_t kFrames = 3 * ShardedEngine::kFrameSlots;
  constexpr std::size_t kWindow = ShardedEngine::kFrameSlots / 2;
  std::vector<std::vector<Weight>> results(kWindow,
                                           std::vector<Weight>(batch.size()));
  std::vector<std::atomic<std::uint32_t>> remaining(kWindow);
  std::size_t wrong = 0;
  const auto collect = [&](std::size_t w) {
    std::uint32_t left;
    while ((left = remaining[w].load(std::memory_order_acquire)) != 0)
      remaining[w].wait(left, std::memory_order_acquire);
    for (std::size_t i = 0; i < batch.size(); ++i)
      if (std::bit_cast<std::uint64_t>(results[w][i]) !=
          std::bit_cast<std::uint64_t>(expected[i]))
        ++wrong;
  };
  for (std::size_t f = 0; f < kFrames; ++f) {
    const std::size_t w = f % kWindow;
    if (f >= kWindow) collect(w);
    remaining[w].store(static_cast<std::uint32_t>(batch.size()));
    engine.submit_batch(batch, results[w].data(), &remaining[w]);
  }
  for (std::size_t w = 0; w < kWindow; ++w) collect(w);
  const bool kept_busy = long_remaining.load(std::memory_order_acquire) > 0;
  EXPECT_EQ(wrong, 0u) << "answers that differ from the oracle";
  EXPECT_EQ(family_sum(counter_family(engine.metrics(),
                                      "shard_intake_full_total")),
            0u)
      << "queries the dispatcher answered with every slot free";

  const std::vector<Query> mine(
      owned.begin(), owned.begin() + ShardedEngine::kInlineCutoff + 1);
  const std::vector<Weight> got = engine.query_batch(mine);
  for (std::size_t i = 0; i < mine.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(
                  snapshot->query(mine[i].u, mine[i].v)))
        << "query " << i;

  std::uint32_t left;
  while ((left = long_remaining.load(std::memory_order_acquire)) != 0)
    long_remaining.wait(left, std::memory_order_acquire);
  for (std::size_t i = 0; i < long_frame.size(); i += 997)
    EXPECT_EQ(long_results[i],
              snapshot->query(long_frame[i].u, long_frame[i].v));
  EXPECT_EQ(family_sum(counter_family(engine.metrics(), "queries_total")),
            long_frame.size() + kFrames * batch.size() + mine.size());
  EXPECT_EQ(family_sum(counter_family(engine.metrics(),
                                      "shard_intake_full_total")),
            0u);
  return kept_busy;
}

// On a loaded machine worker 1 may finish the long frame early; a round
// where it did proves nothing about a busy worker, so up to three are run.
TEST(ShardedEngine, BusyWorkersPendingWordNeverOverflowsAndStaysExact) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  bool kept_busy = false;
  for (int round = 0; round < 3 && !kept_busy; ++round)
    kept_busy = busy_worker_round(snapshot);
  EXPECT_TRUE(kept_busy)
      << "the long frame finished first in every round; worker 1 was never "
         "kept busy";
}

// A frame does not wait for a busy owner: while worker 0 answers a long
// frame that only its shard owns, the other workers answer a second
// frame whole, claiming worker 0's slice of it, bit-identically to the
// oracle.
TEST(ShardedEngine, FrameCompletesWhileItsOwnerIsKeptBusy) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const auto n = static_cast<Vertex>(snapshot->num_vertices());
  ShardedEngine engine(snapshot, {.shards = 4});

  // The long frame: 200000 pairs all owned by shard 0, so only worker 0 is
  // handed it, answered uncached (no cache): tens of milliseconds of work.
  std::vector<Query> owned;
  for (const Query& q : mixed_workload(n, 4000, 43))
    if (engine.shard_of(q.u, q.v) == 0) owned.push_back(q);
  ASSERT_FALSE(owned.empty());
  std::vector<Query> long_frame;
  while (long_frame.size() < 200000)
    long_frame.push_back(owned[long_frame.size() % owned.size()]);
  std::vector<Weight> long_results(long_frame.size());
  std::atomic<std::uint32_t> long_remaining{
      static_cast<std::uint32_t>(long_frame.size())};
  engine.submit_batch(long_frame, long_results.data(), &long_remaining);

  const std::vector<Query> frame = mixed_workload(n, 512, 47);
  const std::vector<Weight> got = engine.query_batch(frame);
  EXPECT_GT(long_remaining.load(std::memory_order_acquire), 0u)
      << "the long frame finished first; worker 0 was not kept busy";
  for (std::size_t i = 0; i < frame.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(
                  snapshot->query(frame[i].u, frame[i].v)))
        << "query " << i;
  EXPECT_GT(claimed_total(engine), 0u);

  std::uint32_t left;
  while ((left = long_remaining.load(std::memory_order_acquire)) != 0)
    long_remaining.wait(left, std::memory_order_acquire);
  for (std::size_t i = 0; i < long_frame.size(); i += 997)
    ASSERT_EQ(long_results[i],
              snapshot->query(long_frame[i].u, long_frame[i].v));
}

TEST(ShardedEngine, AnswerFamilySumsToQueriesAtEveryShardCount) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const std::vector<Query> batch =
      mixed_workload(static_cast<Vertex>(snapshot->num_vertices()), 2000);

  std::map<std::string, std::uint64_t> baseline;
  for (const std::size_t shards : {1u, 2u, 8u}) {
    ShardedEngineOptions opts;
    opts.shards = shards;
    ShardedEngine engine(snapshot, opts);
    engine.query_batch(batch);
    const auto answers = counter_family(engine.metrics(), "answers_total");
    const auto queries = counter_family(engine.metrics(), "queries_total");
    ASSERT_FALSE(answers.empty());
    EXPECT_EQ(family_sum(answers), batch.size());
    EXPECT_EQ(family_sum(queries), batch.size());
    if (baseline.empty())
      baseline = answers;
    else
      EXPECT_EQ(answers, baseline) << shards << " shards diverged";
  }
}

TEST(ShardedEngine, CachedServingKeepsAnswersAndSumInvariant) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const std::vector<Query> batch =
      mixed_workload(static_cast<Vertex>(snapshot->num_vertices()), 1000);
  for (const std::size_t shards : {1u, 2u}) {
    ShardedEngineOptions opts;
    opts.shards = shards;
    opts.cache_capacity = 1 << 14;
    ShardedEngine engine(snapshot, opts);
    const std::vector<Weight> cold = engine.query_batch(batch);
    const std::vector<Weight> warm = engine.query_batch(batch);
    EXPECT_EQ(fnv_digest(cold), fnv_digest(warm)) << shards << " shards";
    const auto answers = counter_family(engine.metrics(), "answers_total");
    EXPECT_EQ(family_sum(answers), 2 * batch.size());
    std::uint64_t cached = 0;
    for (const auto& [key, value] : answers)
      if (key.find("level=cached;") != std::string::npos) cached = value;
    // The warm pass hits on every query no worker claimed in either pass.
    EXPECT_GE(cached + claimed_total(engine), batch.size())
        << shards << " shards";
  }
}

#if defined(__linux__)

/// The CPUs of `mask`, ascending.
std::vector<int> cpus_of(const cpu_set_t& mask) {
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  return cpus;
}

/// Narrows the calling thread's affinity mask (which the threads it starts
/// inherit) to `cpus` and restores the original mask on destruction, so a
/// failed assertion cannot leave the test process narrowed.
class NarrowedAffinity {
 public:
  explicit NarrowedAffinity(const std::vector<int>& cpus) {
    CPU_ZERO(&original_);
    EXPECT_EQ(::sched_getaffinity(0, sizeof(original_), &original_), 0);
    cpu_set_t narrowed;
    CPU_ZERO(&narrowed);
    for (const int cpu : cpus) CPU_SET(cpu, &narrowed);
    EXPECT_EQ(::sched_setaffinity(0, sizeof(narrowed), &narrowed), 0);
  }
  ~NarrowedAffinity() {
    EXPECT_EQ(::sched_setaffinity(0, sizeof(original_), &original_), 0);
  }
  NarrowedAffinity(const NarrowedAffinity&) = delete;
  NarrowedAffinity& operator=(const NarrowedAffinity&) = delete;

 private:
  cpu_set_t original_;
};

// Each worker gets a CPU of its own inside the mask the engine was built
// under, or — when that mask has fewer CPUs than shards — none is pinned.
// Placement decides only where answers are computed, never what they are.
TEST(ShardedEngine, WorkersPinToDistinctAllowedCpus) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const std::vector<Query> batch =
      mixed_workload(static_cast<Vertex>(snapshot->num_vertices()), 1500, 59);
  std::vector<Weight> expected;
  for (const Query& q : batch) expected.push_back(snapshot->query(q.u, q.v));
  const std::uint64_t expected_digest = fnv_digest(expected);

  // Builds a `shards`-shard engine under the current mask, checks where its
  // workers run, and answers the batch as a frame.
  const auto check = [&](std::size_t shards) {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    EXPECT_EQ(::sched_getaffinity(0, sizeof(mask), &mask), 0);
    const std::vector<int> allowed = cpus_of(mask);
    ShardedEngineOptions opts;
    opts.shards = shards;
    ShardedEngine engine(snapshot, opts);
    std::set<int> taken;
    for (std::size_t s = 0; s < shards; ++s) {
      const int cpu = engine.worker_cpu(s);
      if (shards <= allowed.size()) {
        EXPECT_TRUE(cpu >= 0 && CPU_ISSET(cpu, &mask))
            << "shard " << s << " of " << shards << " on CPU " << cpu;
        EXPECT_TRUE(taken.insert(cpu).second)
            << "shard " << s << " of " << shards << " shares CPU " << cpu;
      } else if (allowed.size() > 1) {
        EXPECT_EQ(cpu, -1) << "shard " << s << " of " << shards
                           << " pinned with only " << allowed.size()
                           << " CPUs allowed";
      }
    }
    EXPECT_EQ(fnv_digest(engine.query_batch(batch)), expected_digest)
        << shards << " shards";
  };

  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(::sched_getaffinity(0, sizeof(original), &original), 0);
  const std::vector<int> allowed = cpus_of(original);
  for (const std::size_t shards : {1u, 2u, 4u}) check(shards);

  if (allowed.size() < 2) GTEST_SKIP() << "needs two allowed CPUs";
  {
    // The last two allowed CPUs, so that on a larger machine "the s-th
    // allowed CPU" and "CPU s" differ.
    const NarrowedAffinity two(
        {allowed[allowed.size() - 2], allowed[allowed.size() - 1]});
    check(2);  // pinned within the two CPUs
    check(4);  // more shards than CPUs: nobody pinned
  }
  cpu_set_t restored;
  CPU_ZERO(&restored);
  ASSERT_EQ(::sched_getaffinity(0, sizeof(restored), &restored), 0);
  EXPECT_TRUE(CPU_EQUAL(&restored, &original));
}

#endif  // __linux__

// Per-shard observability: each worker's drain time is counted once per
// drain, so the family sum is positive after traffic and bounded by wall
// time times shards; the shard_cpu gauges repeat worker_cpu().
TEST(ShardedEngine, ShardBusyTimeAndCpuGaugesAreExported) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const std::vector<Query> batch =
      mixed_workload(static_cast<Vertex>(snapshot->num_vertices()), 2000, 61);
  constexpr std::size_t kShards = 2;
  ShardedEngineOptions opts;
  opts.shards = kShards;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t busy = 0;
  {
    ShardedEngine engine(snapshot, opts);
    for (int round = 0; round < 3; ++round) engine.query_batch(batch);
    busy = family_sum(counter_family(engine.metrics(), "shard_busy_ns_total"));
    std::size_t gauges = 0;
    for (const obs::MetricSample& sample : engine.metrics().snapshot()) {
      if (sample.kind != obs::MetricKind::kGauge || sample.name != "shard_cpu")
        continue;
      ASSERT_EQ(sample.labels.size(), 1u);
      const std::size_t shard = std::stoul(sample.labels[0].second);
      ASSERT_LT(shard, kShards);
      EXPECT_EQ(sample.gauge_value, engine.worker_cpu(shard));
      ++gauges;
    }
    EXPECT_EQ(gauges, kShards);
    EXPECT_EQ(counter_family(engine.metrics(), "shard_busy_ns_total").size(),
              kShards);
  }
  const auto wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  EXPECT_GT(busy, 0u);
  EXPECT_LE(busy, wall_ns * kShards);
}

constexpr std::size_t kShardCounts[] = {1, 2, 8};

// The query-engine contract (answers, batches, cache accounting, snapshot
// swap), served by ShardedEngine and checked at every shard count.
TEST(QueryEngine, MatchesOracleWithAndWithoutCache) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const auto n = static_cast<Vertex>(snapshot->num_vertices());
  std::vector<Query> forward, reversed;
  for (Vertex u = 0; u < n; u += 3)
    for (Vertex v = 0; v < n; v += 5) {
      forward.push_back({u, v});
      reversed.push_back({v, u});
    }
  const std::uint64_t queries = forward.size();
  for (const std::size_t shards : kShardCounts) {
    // Batches larger than kInlineCutoff: only shard workers own a cache.
    ShardedEngineOptions cached_opts;
    cached_opts.shards = shards;
    cached_opts.cache_capacity = 1 << 16;
    ShardedEngineOptions uncached_opts = cached_opts;
    uncached_opts.cache_capacity = 0;
    ShardedEngine cached(snapshot, cached_opts);
    ShardedEngine uncached(snapshot, uncached_opts);
    const std::vector<Weight> cold = cached.query_batch(forward);
    const std::vector<Weight> warm = cached.query_batch(reversed);  // hits
    const std::vector<Weight> plain = uncached.query_batch(forward);
    for (std::size_t i = 0; i < forward.size(); ++i) {
      const Weight expected = snapshot->query(forward[i].u, forward[i].v);
      EXPECT_EQ(cold[i], expected);
      EXPECT_EQ(warm[i], expected);
      EXPECT_EQ(plain[i], expected);
    }
    const obs::MetricsRegistry& hot = cached.metrics();
    const obs::MetricsRegistry& cold_metrics = uncached.metrics();
    // Every reversed query hits (pairs recurring in the sweep hit earlier),
    // except where a worker claimed it, or its forward twin, from another
    // shard's slice and answered it uncached.
    const std::uint64_t hits = family_sum(counter_family(hot, "cache_hits"));
    EXPECT_GE(hits + claimed_total(cached), queries) << shards << " shards";
    EXPECT_EQ(hits + family_sum(counter_family(hot, "cache_misses")),
              2 * queries);
    // Without a cache every query is one counted miss.
    EXPECT_EQ(family_sum(counter_family(cold_metrics, "cache_hits")), 0u);
    EXPECT_EQ(family_sum(counter_family(cold_metrics, "cache_misses")),
              queries);
  }
}

TEST(QueryEngine, BatchMatchesSingleQueries) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const std::vector<Query> batch =
      mixed_workload(static_cast<Vertex>(snapshot->num_vertices()), 500, 11);
  for (const std::size_t shards : kShardCounts) {
    ShardedEngineOptions opts;
    opts.shards = shards;
    ShardedEngine engine(snapshot, opts);
    const std::vector<Weight> results = engine.query_batch(batch);  // rings
    ASSERT_EQ(results.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)  // inline, one at a time
      EXPECT_EQ(results[i], engine.query_batch({&batch[i], 1}).front())
          << shards << " shards, query " << i;
  }
}

TEST(QueryEngine, EmptyBatchIsFine) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle(6));
  for (const std::size_t shards : kShardCounts) {
    ShardedEngineOptions opts;
    opts.shards = shards;
    ShardedEngine engine(snapshot, opts);
    EXPECT_TRUE(engine.query_batch({}).empty());
    std::atomic<std::uint32_t> remaining{0};
    engine.submit_batch({}, nullptr, &remaining);
    EXPECT_EQ(remaining.load(), 0u);
    EXPECT_EQ(family_sum(counter_family(engine.metrics(), "queries_total")),
              0u);
  }
}

TEST(QueryEngine, ConcurrentMixedWorkloadIdenticalDistancesAndMetricsAddUp) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const auto n = static_cast<Vertex>(snapshot->num_vertices());
  constexpr int kClients = 4;
  constexpr int kPerClient = 400;
  for (const std::size_t shards : kShardCounts) {
    ShardedEngineOptions opts;
    opts.shards = shards;
    opts.cache_capacity = 512;
    ShardedEngine engine(snapshot, opts);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t)
      clients.emplace_back([&engine, &snapshot, &mismatches, n, t] {
        util::Rng rng(static_cast<std::uint64_t>(100 + t));
        std::vector<Query> batch;
        for (int i = 0; i < kPerClient; ++i) {
          const auto u = static_cast<Vertex>(rng.next_below(n));
          const auto v = static_cast<Vertex>(rng.next_below(n));
          if (i % 3 == 0) {
            const Query single{u, v};
            if (engine.query_batch({&single, 1}).front() !=
                snapshot->query(u, v))
              ++mismatches;
          } else {
            batch.push_back({u, v});
          }
        }
        const std::vector<Weight> results = engine.query_batch(batch);
        for (std::size_t i = 0; i < batch.size(); ++i)
          if (results[i] != snapshot->query(batch[i].u, batch[i].v))
            ++mismatches;
      });
    for (std::thread& c : clients) c.join();
    EXPECT_EQ(mismatches.load(), 0) << shards << " shards";

    const obs::MetricsRegistry& metrics = engine.metrics();
    const std::uint64_t total =
        family_sum(counter_family(metrics, "queries_total"));
    const std::uint64_t hits = family_sum(counter_family(metrics, "cache_hits"));
    const std::uint64_t misses =
        family_sum(counter_family(metrics, "cache_misses"));
    EXPECT_EQ(total, static_cast<std::uint64_t>(kClients) * kPerClient);
    EXPECT_EQ(hits + misses, total);
    EXPECT_EQ(engine.metrics().histogram("query_latency_ns").count(), total);
  }
}

// ------------------------------------------------------------- Net front-end

#if defined(__linux__)

TEST(NetServer, RoundTripsBatchesOverLocalhost) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const auto n = static_cast<Vertex>(snapshot->num_vertices());
  ShardedEngineOptions opts;
  opts.shards = 2;
  ShardedEngine engine(snapshot, opts);
  NetServer server(engine);
  server.start();
  ASSERT_NE(server.port(), 0u);

  wire::NetClient client;
  client.connect("127.0.0.1", server.port());
  std::vector<Weight> distances;

  // An empty batch is a valid ping.
  client.query_batch({}, distances);
  EXPECT_TRUE(distances.empty());

  // The expected answers come from the oracle, so every query the engine
  // counts came over the wire.
  const std::vector<Query> batch = mixed_workload(n, 300, 47);
  std::vector<Weight> expected;
  for (const Query& q : batch) expected.push_back(snapshot->query(q.u, q.v));
  for (int frame = 0; frame < 5; ++frame) {
    client.query_batch(batch, distances);
    ASSERT_EQ(distances.size(), batch.size());
    EXPECT_EQ(fnv_digest(distances), fnv_digest(expected)) << frame;
  }

  // One decode, engine and encode sample per frame (the engine phase's
  // count is the frame count), and one write sample per read event that
  // answered frames.
  constexpr std::uint64_t kFrames = 6;
  obs::MetricsRegistry& metrics = engine.metrics();
  for (const char* phase : {"decode", "engine", "encode"})
    EXPECT_EQ(metrics.histogram("net_frame_phase_ns", {{"phase", phase}})
                  .count(),
              kFrames)
        << phase;
  const std::uint64_t writes =
      metrics.histogram("net_frame_phase_ns", {{"phase", "write"}}).count();
  EXPECT_GE(writes, 1u);
  EXPECT_LE(writes, kFrames);
  EXPECT_EQ(metrics.counter("queries_total").value(), 5u * batch.size());
  EXPECT_EQ(metrics.counter("net_connections_accepted_total").value(), 1u);
  EXPECT_EQ(metrics.counter("net_protocol_errors_total").value(), 0u);
  // The live connection count: one until the server closes it.
  const obs::Gauge& open = metrics.gauge("net_connections_open");
  EXPECT_EQ(open.value(), 1);

  client.close();
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(open.value(), 0);
  // A request and its response are equally long: a header per frame and
  // one entry per pair or distance. Read after stop(), which joins the loop.
  const std::uint64_t wire_bytes =
      kFrames * wire::kHeaderBytes + 5 * batch.size() * wire::kEntryBytes;
  EXPECT_EQ(metrics.counter("net_bytes_in_total").value(), wire_bytes);
  EXPECT_EQ(metrics.counter("net_bytes_out_total").value(), wire_bytes);
}

TEST(NetServer, PipelinedFramesComeBackInOrder) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  ShardedEngineOptions opts;
  opts.shards = 1;
  ShardedEngine engine(snapshot, opts);
  NetServer server(engine);
  server.start();

  wire::NetClient client;
  client.connect("127.0.0.1", server.port());
  const std::vector<Query> a = {{0, 5}, {1, 9}};
  const std::vector<Query> b = {{2, 7}};
  client.send_request(11, a);
  client.send_request(22, b);
  std::vector<Weight> distances;
  EXPECT_EQ(client.recv_response(distances), 11u);
  EXPECT_EQ(distances.size(), a.size());
  EXPECT_EQ(client.recv_response(distances), 22u);
  EXPECT_EQ(distances.size(), b.size());
}

TEST(NetServer, MalformedFrameClosesOnlyThatConnection) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  ShardedEngineOptions opts;
  opts.shards = 1;
  ShardedEngine engine(snapshot, opts);
  NetServer server(engine);
  server.start();

  // Raw socket so we can send a frame the NetClient refuses to produce.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  std::vector<std::uint8_t> bad;
  wire::append_u32(bad, 3);  // payload_len below the request_id minimum
  ASSERT_EQ(::send(fd, bad.data(), bad.size(), 0),
            static_cast<ssize_t>(bad.size()));
  std::uint8_t byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "server should close on garbage";
  ::close(fd);

  // The listener survives: a well-formed connection still round-trips.
  wire::NetClient client;
  client.connect("127.0.0.1", server.port());
  std::vector<Weight> distances;
  client.query_batch(std::vector<Query>{{0, 3}}, distances);
  ASSERT_EQ(distances.size(), 1u);
  EXPECT_EQ(distances[0], snapshot->query(0, 3));
  // The error is exported where an operator reads it: --statsz=json.
  const std::string statsz = obs::metrics_to_json(engine.metrics().snapshot());
  EXPECT_NE(statsz.find("{\"name\": \"net_protocol_errors_total\", "
                        "\"labels\": {}, \"value\": 1}"),
            std::string::npos)
      << statsz;
}

TEST(NetServer, OutOfRangeVertexIdClosesOnlyThatConnection) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const auto n = static_cast<Vertex>(snapshot->num_vertices());
  ShardedEngineOptions opts;
  opts.shards = 2;
  ShardedEngine engine(snapshot, opts);
  NetServer server(engine);
  server.start();

  // A well-formed 16-byte frame whose second id is far past the snapshot:
  // payload_len 12 | request_id 1 | (3, 4000000000).
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  std::vector<std::uint8_t> bad;
  wire::append_request(bad, 1, std::vector<Query>{{3, 4000000000u}});
  ASSERT_EQ(bad.size(), 16u);
  ASSERT_EQ(::send(fd, bad.data(), bad.size(), 0),
            static_cast<ssize_t>(bad.size()));
  std::uint8_t byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "server should close on a bad id";
  ::close(fd);

  // The server is still up and a second connection gets correct answers,
  // the highest valid id included.
  wire::NetClient client;
  client.connect("127.0.0.1", server.port());
  const std::vector<Query> batch = {{3, 5}, {0, n - 1}, {n - 1, n - 1}};
  std::vector<Weight> distances;
  client.query_batch(batch, distances);
  ASSERT_EQ(distances.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(distances[i], snapshot->query(batch[i].u, batch[i].v)) << i;
  EXPECT_EQ(engine.metrics().counter("net_protocol_errors_total").value(), 1u);
  EXPECT_EQ(engine.metrics().counter("queries_total").value(), batch.size());
}

TEST(NetServer, NonReadingPeerIsBackpressured) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const auto n = static_cast<Vertex>(snapshot->num_vertices());
  ShardedEngineOptions opts;
  opts.shards = 2;
  ShardedEngine engine(snapshot, opts);
  NetServer server(engine);
  server.start();

  // A raw nonblocking client that sends 4096-pair frames and never reads
  // its replies. Small socket buffers keep the kernel's share small.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int buffer_bytes = 64 * 1024;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buffer_bytes, sizeof(buffer_bytes));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buffer_bytes, sizeof(buffer_bytes));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK), 0);

  std::vector<std::uint8_t> frame;
  wire::append_request(frame, 1, mixed_workload(n, 4096, 53));
  // Send until the socket stays full for half a second: the server has
  // stopped reading. An unbounded server reads everything, so the loop
  // gives up after 64 MiB and the bytes_in check below fails.
  constexpr std::size_t kGiveUpBytes = std::size_t{64} << 20;
  std::size_t sent = 0, offset = 0;
  while (sent < kGiveUpBytes) {
    const ssize_t k = ::send(fd, frame.data() + offset, frame.size() - offset,
                             MSG_NOSIGNAL);
    if (k > 0) {
      sent += static_cast<std::size_t>(k);
      offset = (offset + static_cast<std::size_t>(k)) % frame.size();
      continue;
    }
    ASSERT_TRUE(k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        << "send failed: " << std::strerror(errno);
    pollfd writable{fd, POLLOUT, 0};
    if (::poll(&writable, 1, 500) == 0) break;  // stayed full: backpressured
  }
  EXPECT_LT(sent, kGiveUpBytes) << "the client was never backpressured";
  // A response is exactly as long as its request, so what was read but not
  // yet handed to the kernel — bytes_in - bytes_out — is what the server
  // holds in its own buffers: at most the pending-output bound plus one
  // read's frames and their answers. The kernel's socket buffers hold
  // a few MiB more.
  // bytes_out is read first: both only grow, so in - out stays an upper
  // bound of what the server holds.
  const std::uint64_t bytes_out =
      engine.metrics().counter("net_bytes_out_total").value();
  const std::uint64_t bytes_in =
      engine.metrics().counter("net_bytes_in_total").value();
  EXPECT_LT(bytes_in, std::uint64_t{16} << 20);
  EXPECT_LT(bytes_in - bytes_out, std::uint64_t{5} << 20);

  // The event loop is not stuck on the full connection: a second one is
  // still answered.
  wire::NetClient client;
  client.connect("127.0.0.1", server.port());
  const std::vector<Query> batch = {{3, 5}, {0, n - 1}};
  std::vector<Weight> distances;
  client.query_batch(batch, distances);
  ASSERT_EQ(distances.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(distances[i], snapshot->query(batch[i].u, batch[i].v)) << i;
  ::close(fd);
  client.close();
  server.stop();
}

// A request frame may arrive in any number of pieces. Delivered split at
// every byte boundary, and one byte per send, with TCP_NODELAY so each send
// leaves as its own segment, it must be answered exactly as when sent
// whole: byte-identical responses, no protocol error, no early answer from
// a partial frame and no stall. The frame stays small, 5 pairs, because
// every byte boundary costs a round trip; so small a frame is answered
// inline rather than as a frame, which reassembly does not touch.
TEST(NetServer, FramesSplitAtEveryByteAnswerLikeWholeFrames) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  const auto n = static_cast<Vertex>(snapshot->num_vertices());
  ShardedEngineOptions opts;
  opts.shards = 2;
  ShardedEngine engine(snapshot, opts);
  NetServer server(engine);
  server.start();

  const std::vector<Query> batch = mixed_workload(n, 5, 67);
  std::vector<std::uint8_t> frame;
  wire::append_request(frame, 77, batch);
  std::vector<Weight> answers;
  for (const Query& q : batch) answers.push_back(snapshot->query(q.u, q.v));
  std::vector<std::uint8_t> expected;
  wire::append_response(expected, 77, answers);
  ASSERT_EQ(expected.size(), frame.size());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int one = 1;
  ASSERT_EQ(::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);

  // Sends frame[begin, end); then, unless the frame is complete, gives the
  // server a moment to read the piece and checks it did not answer yet.
  const auto send_piece = [&](std::size_t begin, std::size_t end) {
    ASSERT_EQ(::send(fd, frame.data() + begin, end - begin, MSG_NOSIGNAL),
              static_cast<ssize_t>(end - begin));
    if (end == frame.size()) return;
    pollfd readable{fd, POLLIN, 0};
    ASSERT_EQ(::poll(&readable, 1, 2), 0)
        << "answered after " << end << " of " << frame.size() << " bytes";
  };
  // Reads one response, failing instead of hanging when it does not come.
  const auto read_response = [&](const std::string& delivery) {
    std::vector<std::uint8_t> got(expected.size());
    std::size_t have = 0;
    while (have < got.size()) {
      pollfd readable{fd, POLLIN, 0};
      ASSERT_EQ(::poll(&readable, 1, 5000), 1) << delivery << ": stalled";
      const ssize_t k = ::recv(fd, got.data() + have, got.size() - have, 0);
      ASSERT_GT(k, 0) << delivery << ": connection closed";
      have += static_cast<std::size_t>(k);
    }
    EXPECT_EQ(got, expected) << delivery;
  };

  for (std::size_t split = 1; split < frame.size(); ++split) {
    send_piece(0, split);
    send_piece(split, frame.size());
    read_response("split at byte " + std::to_string(split));
  }
  for (std::size_t at = 0; at < frame.size(); ++at) send_piece(at, at + 1);
  read_response("one byte per send");

  obs::MetricsRegistry& metrics = engine.metrics();
  EXPECT_EQ(metrics.counter("net_protocol_errors_total").value(), 0u);
  // frame.size() - 1 splits + 1 frame sent a byte at a time.
  EXPECT_EQ(metrics.histogram("net_frame_phase_ns", {{"phase", "engine"}})
                .count(),
            frame.size());
  EXPECT_EQ(metrics.counter("queries_total").value(),
            frame.size() * batch.size());
  ::close(fd);
  server.stop();
}

TEST(NetServer, StopIsIdempotentAndRestartable) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  ShardedEngineOptions opts;
  opts.shards = 1;
  ShardedEngine engine(snapshot, opts);
  NetServer server(engine);
  server.start();
  const std::uint16_t first_port = server.port();
  ASSERT_NE(first_port, 0u);
  server.stop();
  server.stop();  // idempotent
  server.start();  // a stopped server can serve again (fresh ephemeral port)
  wire::NetClient client;
  client.connect("127.0.0.1", server.port());
  std::vector<Weight> distances;
  client.query_batch(std::vector<Query>{{1, 2}}, distances);
  EXPECT_EQ(distances.size(), 1u);
}

/// CPU seconds this process has used, all threads together.
double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Highest file descriptor this process holds open.
int highest_open_fd() {
  int highest = 2;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd"))
    highest = std::max(highest, std::stoi(entry.path().filename().string()));
  return highest;
}

// At descriptor exhaustion accept() fails with EMFILE while the connection
// stays pending, so the level-triggered listening socket stays readable.
// The loop must idle rather than spin on it, and take the connection once
// a descriptor frees up. The test lowers this process's own soft
// RLIMIT_NOFILE, fills it, and restores both on the way out.
TEST(NetServer, DescriptorExhaustionIdlesUntilAConnectionCloses) {
  auto snapshot = std::make_shared<const oracle::PathOracle>(grid_oracle());
  ShardedEngineOptions opts;
  opts.shards = 1;
  ShardedEngine engine(snapshot, opts);
  NetServer server(engine);
  server.start();
  wire::NetClient first;
  first.connect("127.0.0.1", server.port());
  std::vector<Weight> distances;
  first.query_batch(std::vector<Query>{{1, 2}}, distances);

  struct Restore {
    rlimit saved{};
    std::vector<int> fillers;
    ~Restore() {
      for (const int fd : fillers) ::close(fd);
      ::setrlimit(RLIMIT_NOFILE, &saved);
    }
  } restore;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &restore.saved), 0);
  rlimit low = restore.saved;
  low.rlim_cur = static_cast<rlim_t>(highest_open_fd() + 16);
  ASSERT_LE(low.rlim_cur, restore.saved.rlim_cur);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  // Take every free descriptor, then hand one back to a new client: the
  // kernel completes its handshake, but the server cannot accept it.
  for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;)
    restore.fillers.push_back(fd);
  ASSERT_EQ(errno, EMFILE);
  ASSERT_FALSE(restore.fillers.empty());
  ::close(restore.fillers.back());
  restore.fillers.pop_back();
  wire::NetClient second;
  second.connect("127.0.0.1", server.port());

  // A spinning loop burns a whole CPU; an idle one wakes every 100 ms.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double cpu_before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const double cpu_used = process_cpu_seconds() - cpu_before;
  EXPECT_LT(cpu_used, 0.1) << "the accept loop spins at EMFILE";
  const obs::Counter& accepted =
      engine.metrics().counter("net_connections_accepted_total");
  EXPECT_EQ(accepted.value(), 1u);

  // Closing the first client frees the server's descriptor for it, so the
  // pending client is accepted and served.
  first.close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (accepted.value() < 2 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(accepted.value(), 2u);
  second.query_batch(std::vector<Query>{{3, 4}}, distances);
  ASSERT_EQ(distances.size(), 1u);
  EXPECT_EQ(distances[0], snapshot->query(3, 4));
  second.close();
  server.stop();
}

#endif  // __linux__

}  // namespace
}  // namespace pathsep::service
