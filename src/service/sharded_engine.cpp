// pathsep-lint: hot-path — dispatch_batch and worker_loop sit under every
// sharded query; frame slots, pending words and counters are preallocated
// at engine construction (a slot's index arrays grow to the largest frame it
// has carried, then stay).
#include "service/sharded_engine.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "util/parallel.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace pathsep::service {
namespace {

/// splitmix64 finalizer — decorrelates the canonical pair key from the
/// shard index so grid-adjacent pairs spread across shards.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::size_t kMaxShards = FrameTable::kMaxOwners;
static_assert(ShardedEngine::kFrameSlots >= 1 &&
                  ShardedEngine::kFrameSlots <= 64,
              "one bit of a shard's pending word per frame slot");
/// Every frame slot's pending bit.
constexpr std::uint64_t kAllSlots =
    ~std::uint64_t{0} >> (64 - ShardedEngine::kFrameSlots);

/// `snapshot`, or std::invalid_argument when it is null.
std::shared_ptr<const oracle::PathOracle> non_null(
    std::shared_ptr<const oracle::PathOracle> snapshot) {
  if (!snapshot) throw std::invalid_argument("null oracle snapshot");
  return snapshot;
}

/// `options` with the shard count resolved: 0 becomes the thread budget,
/// and the count is clamped to kMaxShards.
ShardedEngineOptions resolve_shards(ShardedEngineOptions options) {
  options.shards = std::min(
      kMaxShards, options.shards != 0 ? options.shards : util::threads());
  return options;
}

/// The CPUs the calling thread may run on, ascending: the mask every thread
/// it starts inherits. Empty where the mask cannot be read.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (::sched_getaffinity(0, sizeof(mask), &mask) == 0)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
#endif
  return cpus;
}

/// Confines `thread` to `cpu`, best effort: a refusal leaves it unpinned.
void pin_to_cpu(std::thread& thread, int cpu) {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  ::pthread_setaffinity_np(thread.native_handle(), sizeof(mask), &mask);
#else
  (void)thread;
  (void)cpu;
#endif
}

}  // namespace

ShardedEngine::ShardedEngine(
    std::shared_ptr<const oracle::PathOracle> snapshot,
    ShardedEngineOptions options)
    : snapshot_(non_null(std::move(snapshot))),
      options_(resolve_shards(options)),
      batches_total_(&metrics_.counter("batches_total")),
      intake_full_total_(&metrics_.counter("shard_intake_full_total")),
      path_(metrics_, snapshot_->num_levels(), kSlowlogCapacity),
      frames_(kFrameSlots, options_.shards) {
  metrics_.gauge("snapshot_vertices")
      .set(static_cast<std::int64_t>(snapshot_->num_vertices()));
  const std::size_t shards = options_.shards;
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t cache = options.cache_capacity / shards;
    // pathsep-lint: allow(hot-path-alloc)
    shards_.push_back(std::make_unique<Shard>(cache));
    const std::string label = std::to_string(s);
    shards_.back()->busy_ns_total =
        &metrics_.counter("shard_busy_ns_total", {{"shard", label}});
    shards_.back()->claimed_total =
        &metrics_.counter("queries_claimed_total", {{"shard", label}});
  }
  // Workers start only after every shard and frame slot exists (a worker
  // helps with any shard's slice). Each gets a CPU of its own when the
  // inherited mask has one for every shard, else none is pinned (see "Core
  // placement" in the header).
  const std::vector<int> cpus = allowed_cpus();
  for (std::size_t s = 0; s < shards; ++s) {
    shards_[s]->worker = std::thread([this, s] { worker_loop(s); });
    if (shards <= cpus.size()) pin_to_cpu(shards_[s]->worker, cpus[s]);
    metrics_.gauge("shard_cpu", {{"shard", std::to_string(s)}})
        .set(worker_cpu(s));
  }
}

ShardedEngine::~ShardedEngine() {
  // With no frame in flight every bit claims nothing (F3, F5); the worker
  // then finds its word empty and sees stop_.
  stop_.store(true, std::memory_order_release);
  for (const std::unique_ptr<Shard>& shard : shards_)
    wake_shard(*shard, kAllSlots);
  for (const std::unique_ptr<Shard>& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
}

int ShardedEngine::worker_cpu(std::size_t shard) const {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (::pthread_getaffinity_np(shards_[shard]->worker.native_handle(),
                               sizeof(mask), &mask) == 0 &&
      CPU_COUNT(&mask) == 1)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &mask)) return cpu;
#else
  (void)shard;
#endif
  return -1;
}

std::size_t ShardedEngine::shard_of(graph::Vertex u, graph::Vertex v) const {
  // Multiply-high instead of a modulo: the dispatcher maps every pair of a
  // frame serially before any bit is set, and a 64-bit division costs
  // several times a multiply. The high half of the mixed key is uniform, so
  // its scaled product is too.
  const std::uint64_t high = mix64(ResultCache::key(u, v)) >> 32;
  return static_cast<std::size_t>((high * shards_.size()) >> 32);
}

void ShardedEngine::wake_shard(Shard& shard, std::uint64_t bits) {
  // The bits first (release, and so after the frame's publish: F5), then
  // the futex syscall only when the worker advertised it was sleeping.
  // seq_cst on both words against the worker's seq_cst flag store and wait:
  // a "not sleeping" read means the worker's wait sees the bits (see the
  // wake protocol in the header).
  shard.pending.fetch_or(bits, std::memory_order_seq_cst);
  if (shard.sleeping.load(std::memory_order_seq_cst) != 0)
    shard.pending.notify_one();
}

std::uint32_t ShardedEngine::answer_slice(FrameTable::Ticket ticket,
                                          std::size_t shard,
                                          ResultCache* cache,
                                          AnswerPath::Tally& tally) {
  std::uint32_t answered = 0;
  FrameTable::Chunk chunk;
  while (frames_.claim(ticket, shard, chunk)) {
    path_.answer(*snapshot_, cache, chunk.queries, chunk.order, chunk.count,
                 chunk.results, tally);
    answered += chunk.count;
  }
  return answered;
}

void ShardedEngine::worker_loop(std::size_t shard_id) {
  Shard& shard = *shards_[shard_id];
  const std::size_t shards = shards_.size();

  for (;;) {
    // Acquire pairs with wake_shard's fetch_or: each slot's claim words
    // were published before its bit was set (F5).
    std::uint64_t bits = shard.pending.exchange(0, std::memory_order_acquire);
    if (bits == 0) {
      if (stop_.load(std::memory_order_acquire)) return;
      // Brief spin catches back-to-back batches without a futex round-trip.
      bool woke = false;
      for (int i = 0; i < 64 && !woke; ++i)
        woke = shard.pending.load(std::memory_order_relaxed) != 0;
      if (!woke) {
        shard.sleeping.store(1, std::memory_order_seq_cst);
        shard.pending.wait(0, std::memory_order_seq_cst);
        shard.sleeping.store(0, std::memory_order_relaxed);
      }
      continue;
    }

    // Busy time spans the whole drain, answers and completions: two clock
    // reads and one counter add per drain, never per query.
    const std::uint64_t drain_start = obs::window_now_ns();
    for (; bits != 0; bits &= bits - 1) {
      const FrameTable::Ticket ticket = frames_.ticket(
          static_cast<std::size_t>(__builtin_ctzll(bits)), shard_id);
      AnswerPath::Tally tally;
      // Own slice first, through the cache; then whatever is left of the
      // frame's other slices, uncached, next shard first.
      const std::uint32_t own =
          answer_slice(ticket, shard_id, &shard.cache, tally);
      std::uint32_t claimed = 0;
      for (std::size_t k = 1; k < shards; ++k)
        claimed +=
            answer_slice(ticket, (shard_id + k) % shards, nullptr, tally);
      if (own + claimed == 0) continue;  // a stale bit
      path_.publish(tally);
      if (claimed != 0) shard.claimed_total->inc(claimed);
      frames_.finish(ticket, own + claimed);
    }
    shard.busy_ns_total->inc(obs::window_now_ns() - drain_start);
  }
}

void ShardedEngine::dispatch_batch(std::span<const Query> queries,
                                   graph::Weight* results,
                                   std::atomic<std::uint32_t>* remaining) {
  const auto size = static_cast<std::uint32_t>(queries.size());
  std::uint64_t touched = 0;  // bit s: shard s has a non-empty slice
  const std::optional<FrameTable::Ticket> ticket = frames_.open(
      queries, results, remaining,
      [&](std::size_t i) { return shard_of(queries[i].u, queries[i].v); },
      touched);
  if (!ticket) {
    // Every slot is in flight: answer on this thread instead of blocking —
    // bounded extra work under overload, never a stall.
    intake_full_total_->inc(size);
    path_.answer_chunk(*snapshot_, nullptr, queries.data(), results, size);
    FrameTable::complete(remaining, size);
    return;
  }

  // The slot's bit to every touched shard, each woken right after. From the
  // first bit on the frame may complete at any time.
  const std::uint64_t bit = std::uint64_t{1} << ticket->slot;
  for (; touched != 0; touched &= touched - 1)
    wake_shard(*shards_[static_cast<std::size_t>(__builtin_ctzll(touched))],
               bit);
}

void ShardedEngine::query_batch_into(std::span<const Query> queries,
                                     graph::Weight* results) {
  if (queries.empty()) return;
  PATHSEP_SPAN("service.sharded_batch");
  batches_total_->inc();

  if (queries.size() <= kInlineCutoff) {
    // Inline fast path: answer on this thread.
    path_.answer_chunk(*snapshot_, nullptr, queries.data(), results,
                       queries.size());
    return;
  }

  std::atomic<std::uint32_t> remaining{
      static_cast<std::uint32_t>(queries.size())};
  dispatch_batch(queries, results, &remaining);
  std::uint32_t left;
  while ((left = remaining.load(std::memory_order_acquire)) != 0)
    remaining.wait(left, std::memory_order_acquire);
}

std::vector<graph::Weight> ShardedEngine::query_batch(
    std::span<const Query> queries) {
  std::vector<graph::Weight> results(queries.size());
  query_batch_into(queries, results.data());
  return results;
}

void ShardedEngine::submit_batch(std::span<const Query> queries,
                                 graph::Weight* results,
                                 std::atomic<std::uint32_t>* remaining) {
  if (queries.empty()) return;
  batches_total_->inc();
  dispatch_batch(queries, results, remaining);
}

}  // namespace pathsep::service
