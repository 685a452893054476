// pathsep-lint: hot-path — dispatch_batch and worker_loop sit under every
// sharded query; rings, frame slots and counters are preallocated at engine
// construction (a slot's index arrays grow to the largest frame it has
// carried, then stay; the per-worker ticket buffer is sized once at thread
// start, before the first drain).
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
/// Tickets per shard ring: every frame slot's, twice over, so stale
/// tickets of a descheduled worker rarely fill it.
constexpr std::size_t kRingCapacity = 2 * ShardedEngine::kFrameSlots;
/// Tickets one drain pops.
constexpr std::size_t kTicketBatch = 32;

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
    // pathsep-lint: allow(hot-path-alloc)
    shards_.push_back(std::make_unique<Shard>(
        kRingCapacity, options.cache_capacity / shards));
    const std::string label = std::to_string(s);
    shards_.back()->busy_ns_total =
        &metrics_.counter("shard_busy_ns_total", {{"shard", label}});
    shards_.back()->claimed_total =
        &metrics_.counter("queries_claimed_total", {{"shard", label}});
  }
  // Workers start only after every ring and frame slot exists (a worker
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
  stop_.store(true, std::memory_order_release);
  for (const std::unique_ptr<Shard>& shard : shards_) wake_shard(*shard);
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
  // frame serially before any ticket goes out, and a 64-bit division costs
  // several times a multiply. The high half of the mixed key is uniform, so
  // its scaled product is too.
  const std::uint64_t high = mix64(ResultCache::key(u, v)) >> 32;
  return static_cast<std::size_t>((high * shards_.size()) >> 32);
}

void ShardedEngine::wake_shard(Shard& shard) {
  // Version bump first (release: pairs with the worker's acquire load to
  // publish the ring entries), then the futex syscall only when the worker
  // advertised it was sleeping. A stale "not sleeping" read is safe: the
  // worker's wait(value) re-checks the bumped counter and returns
  // immediately (see the wake-protocol invariant in the header).
  shard.signal.fetch_add(1, std::memory_order_release);
  if (shard.sleeping.load(std::memory_order_acquire) != 0)
    shard.signal.notify_one();
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
  // Per-worker scratch, sized once before the first drain.
  std::vector<FrameTable::Ticket> tickets(kTicketBatch);

  for (;;) {
    // Load the wake counter before the drain attempt: a producer that
    // publishes after this load also bumps the counter after it, so the
    // wait below falls through instead of sleeping over new work.
    const std::uint64_t sig = shard.signal.load(std::memory_order_acquire);
    const std::size_t n = shard.ring.pop_batch(tickets.data(), kTicketBatch);
    if (n == 0) {
      if (stop_.load(std::memory_order_acquire)) return;
      // Brief spin catches back-to-back batches without a futex round-trip.
      bool woke = false;
      for (int i = 0; i < 64 && !woke; ++i)
        woke = !shard.ring.empty_approx();
      if (!woke) {
        shard.sleeping.store(1, std::memory_order_release);
        shard.signal.wait(sig, std::memory_order_acquire);
        shard.sleeping.store(0, std::memory_order_release);
      }
      continue;
    }

    // Busy time spans the whole drain, answers and completions: two clock
    // reads and one counter add per drain, never per query.
    const std::uint64_t drain_start = obs::window_now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      const FrameTable::Ticket ticket = tickets[i];
      AnswerPath::Tally tally;
      // Own slice first, through the cache; then whatever is left of the
      // frame's other slices, uncached, next shard first.
      const std::uint32_t own =
          answer_slice(ticket, shard_id, &shard.cache, tally);
      std::uint32_t claimed = 0;
      for (std::size_t k = 1; k < shards; ++k)
        claimed +=
            answer_slice(ticket, (shard_id + k) % shards, nullptr, tally);
      if (own + claimed == 0) continue;  // a stale ticket
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

  // One ticket per touched shard, each woken right after its push. From the
  // first push on the frame may complete at any time; only the ticket is
  // used below.
  std::uint64_t unsent = 0;
  for (; touched != 0; touched &= touched - 1) {
    const auto s = static_cast<std::size_t>(__builtin_ctzll(touched));
    if (shards_[s]->ring.try_push(*ticket))
      wake_shard(*shards_[s]);
    else
      unsent |= std::uint64_t{1} << s;
  }
  if (unsent == 0) return;
  // A full ring (its worker is far behind): claim that slice here.
  AnswerPath::Tally tally;
  std::uint32_t answered = 0;
  for (; unsent != 0; unsent &= unsent - 1)
    answered += answer_slice(
        *ticket, static_cast<std::size_t>(__builtin_ctzll(unsent)), nullptr,
        tally);
  if (answered == 0) return;
  path_.publish(tally);
  intake_full_total_->inc(answered);
  frames_.finish(*ticket, answered);
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
