// Shard-per-core query engine: claimable frames over one immutable
// snapshot, and zero-mutex completion on the serving hot path.
//
// Query ownership is partitioned by the canonical (min(u,v), max(u,v)) pair
// hash across N shard workers; each worker owns one lock-free private
// result cache (service/result_cache.hpp). Theorem 2 answers a pair from
// its two labels alone, so *who* answers never changes the answer: the
// owner matters only for the cache.
//
// Frames and pending bits. A batch above kInlineCutoff queries becomes a
// frame in one of kFrameSlots engine-owned, reused slots of a FrameTable
// (service/frame_table.hpp), bucketed once by owning shard. The dispatcher
// then sets the frame's slot bit in the 64-bit `pending` word of every
// shard the frame touches. A worker takes all its bits with one exchange
// and, per bit, rebuilds the frame's ticket (slot, generation) from the
// slot's claim word. Nothing per query, and no queue, crosses to a worker.
//
// Claims. A worker claims its own slice of a bit's frame chunk by chunk
// (FrameTable::kChunk queries, one CAS each) and answers through its cache;
// once its slice is exhausted it claims the remaining chunks of the frame's
// other slices and answers them uncached (queries_claimed_total{shard}), so
// every cache keeps a single owner and a frame never waits for a
// descheduled or stolen worker to start its share. A bit taken after its
// frame completed claims nothing and touches none of the caller's memory
// (FrameTable's invariants F3 and F5; DESIGN §5c has the argument).
//
// Completion is one release fetch_sub on the frame per thread that answered
// any of it; the last one frees the slot and counts the frame off the
// caller's counter, with a C++20 atomic notify when that hits zero —
// producers never wait on a mutex or condition variable. Each worker
// publishes its serving metrics once per frame, before its answers count
// as done.
//
// One snapshot for the engine's life: the engine holds the oracle it was
// constructed with until it is destroyed, and every worker and caller
// answers from it through a plain reference. Nothing on the query path
// touches a shared_ptr control block, a lock or a swap check, and a cached
// answer can never outlive the labeling it came from. (Swapping a live
// snapshot would come back with dynamic updates; ROADMAP, parked items.)
//
// Wake protocol (lock-free, no lost wakeups): `pending` is also the
// worker's futex word. A worker that finds it empty spins briefly, then sets
// its `sleeping` flag and waits while the word is 0; a dispatcher sets its
// bit, then notifies only when it reads the flag set. Both sides use
// seq_cst, so either the dispatcher sees the flag or the worker's wait sees
// the bit: a wakeup is never lost, and an awake worker costs no syscall.
//
// Backpressure: nothing blocks the producer, and a bit cannot overflow.
// When every frame slot is taken, the batch is answered on the producer's
// thread and counted in shard_intake_full_total. Batches of at most
// kInlineCutoff queries skip the frames entirely: for small frames the
// dispatch and wake cost more than the sub-microsecond queries they spread
// (measured in DESIGN §5c). Caller-thread answers bypass the cache.
//
// Core placement: each worker is pinned to a CPU of its own. A frame's
// dispatcher plus N awake workers are N+1 runnable threads; on an N-CPU
// host the kernel, left to itself, mostly wakes two workers onto one CPU
// and keeps them there for the whole drain while another CPU idles, so the
// frame waits for one worker to finish before its neighbour starts (on 4
// vCPUs, 4 unpinned shards answered a 512-pair uniform frame no faster than
// 3). The rule: the engine reads the CPUs its constructing thread may use
// (sched_getaffinity, the mask the workers inherit); if there are at least
// as many as shards, worker s is pinned to the s-th of them, otherwise no
// worker is pinned — two workers never share a CPU on purpose, and nothing
// is placed outside the mask the process was given. Pinning is best effort:
// a refused pthread_setaffinity_np leaves that worker unpinned. A pinned
// worker cannot leave a vCPU the hypervisor is stealing; the claims are
// what keep its share of a frame from waiting for that vCPU. worker_cpu()
// and the shard_cpu{shard} gauge show the placement, and the
// shard_busy_ns_total{shard} counter each worker's drain time (two clock
// reads per drain, published once per drain).
//
// Results are byte-identical across shard counts and thread counts: every
// query is answered independently from one immutable snapshot, so the
// partition and the claims change only *who* computes each answer, never
// the answer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "oracle/path_oracle.hpp"
#include "obs/metrics.hpp"
#include "service/answer_path.hpp"
#include "service/frame_table.hpp"
#include "service/result_cache.hpp"

namespace pathsep::service {

struct ShardedEngineOptions {
  /// Shard workers; 0 = the thread budget, util::threads(). Clamped to 64.
  std::size_t shards = 0;
  /// Result-cache entries, split evenly into the shards' tables (0 = none).
  std::size_t cache_capacity = 0;
};

class ShardedEngine {
 public:
  /// Batches of at most this many queries are answered inline on the
  /// caller's thread, uncached (see "Backpressure" in the file header).
  static constexpr std::size_t kInlineCutoff = 128;
  /// Frames in flight at once, one bit each of a shard's pending word;
  /// more are answered on the caller's thread.
  static constexpr std::size_t kFrameSlots = 64;
  /// Slowest-query exemplars the AnswerPath's slow-log retains.
  static constexpr std::size_t kSlowlogCapacity = 64;

  /// Serves `snapshot` until destroyed. Throws std::invalid_argument on a
  /// null snapshot, before any worker starts.
  explicit ShardedEngine(std::shared_ptr<const oracle::PathOracle> snapshot,
                         ShardedEngineOptions options = {});

  /// Stops and joins every shard worker. Callers must not have batches in
  /// flight.
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Every query entry point takes in-range ids (< num_vertices()); like
  /// PathOracle::query they are checked only by a debug PATHSEP_DCHECK, so
  /// callers holding untrusted ids (the wire server) validate them first.

  /// Answers queries[i] into results[i]; small batches inline, larger ones
  /// as a claimable frame. Blocks until the whole batch is answered.
  /// Safe to call from many client threads concurrently. `results` must
  /// point at queries.size() writable slots.
  void query_batch_into(std::span<const Query> queries,
                        graph::Weight* results);

  /// Allocating convenience wrapper over query_batch_into.
  std::vector<graph::Weight> query_batch(std::span<const Query> queries);

  /// Asynchronous submission for open-loop load generation: dispatches the
  /// batch as a frame (answering it inline when no frame slot is free) and
  /// returns without waiting. `queries`, `results` and `remaining` must stay
  /// valid until `remaining`, which the caller initializes to
  /// queries.size(), reaches zero; results are readable (with acquire) once
  /// it does.
  void submit_batch(std::span<const Query> queries, graph::Weight* results,
                    std::atomic<std::uint32_t>* remaining);

  /// Vertex count of the snapshot, fixed at construction.
  std::size_t num_vertices() const { return snapshot_->num_vertices(); }
  std::size_t num_shards() const { return shards_.size(); }
  /// Owning shard of a query pair (canonical: both directions agree).
  std::size_t shard_of(graph::Vertex u, graph::Vertex v) const;
  /// The one CPU worker `shard` may run on, read back from the kernel; -1
  /// when its affinity mask allows several (an unpinned worker).
  int worker_cpu(std::size_t shard) const;

  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  const obs::WindowedHistogram& window() const { return path_.window(); }
  const obs::SlowLog& slowlog() const { return path_.slowlog(); }

 private:
  struct Shard {
    explicit Shard(std::size_t cache_capacity) : cache(cache_capacity) {}
    /// Bit k: frame slot k may hold work for this shard. Also the worker's
    /// futex word, with `sleeping` its sleep flag (see file header).
    alignas(64) std::atomic<std::uint64_t> pending{0};
    std::atomic<std::uint32_t> sleeping{0};
    ResultCache cache;   ///< touched only by `worker`
    /// shard_busy_ns_total{shard}: drain time, added once per drain.
    obs::Counter* busy_ns_total = nullptr;
    /// queries_claimed_total{shard}: queries `worker` answered from other
    /// shards' slices, added once per frame.
    obs::Counter* claimed_total = nullptr;
    std::thread worker;  ///< joined by ~ShardedEngine before members die
  };

  void worker_loop(std::size_t shard_id);
  /// Answers the batch as a frame (or inline when no slot is free); does
  /// not wait.
  void dispatch_batch(std::span<const Query> queries, graph::Weight* results,
                      std::atomic<std::uint32_t>* remaining);
  /// Claims and answers chunks of slice `shard` of the ticket's frame
  /// until none is left; returns how many queries it answered. `cache` is
  /// the answering worker's own table, or null.
  std::uint32_t answer_slice(FrameTable::Ticket ticket, std::size_t shard,
                             ResultCache* cache, AnswerPath::Tally& tally);
  /// Sets `bits` in the shard's pending word and wakes a sleeping worker.
  static void wake_shard(Shard& shard, std::uint64_t bits);

  /// The serving snapshot, never null; first, so the null check runs
  /// before any other member is built.
  const std::shared_ptr<const oracle::PathOracle> snapshot_;
  ShardedEngineOptions options_;
  obs::MetricsRegistry metrics_;
  obs::Counter* batches_total_;
  obs::Counter* intake_full_total_;   ///< queries the dispatcher answered
  AnswerPath path_;  ///< after metrics_: it resolves counters in it

  std::atomic<bool> stop_{false};
  std::vector<std::unique_ptr<Shard>> shards_;
  FrameTable frames_;  ///< kFrameSlots slots, one owner per shard
};

}  // namespace pathsep::service
