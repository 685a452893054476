// pathsep-lint: hot-path — open() buckets every frame the sharded engine
// dispatches; a slot's index arrays grow only for a frame larger than any
// it carried before.
//
// Claimable frames: the work-sharing protocol under ShardedEngine.
//
// A frame is one batch of queries in one of a fixed number of reusable
// slots. open() buckets the batch once by owner — the owner of every pair in
// one pass, then a counting sort of the pair indices, so each owner's slice
// is one contiguous run of `order` — and returns a Ticket (slot,
// generation) that stands for the frame in every owner's intake ring.
//
// Every (slot, owner) has one claim word: the slot's generation in the high
// half, the next unclaimed chunk (kChunk queries) of that owner's slice in
// the low half. claim() takes the next chunk of any slice with one CAS that
// expects the ticket's generation, so any thread can answer any chunk and
// every chunk is answered exactly once. finish() counts answered queries
// off the frame; the last count closes every claim word (cursor kClosed),
// frees the slot and then counts the frame off the caller's `remaining`
// (one release fetch_sub plus a C++20 atomic notify when it hits zero).
//
// Lifetime invariants (lock-free, documented instead of annotated):
//   F1  A slot's plain fields (queries, results, remaining, size, order) are
//       written only by the thread that won `busy` in open(), before it
//       release-stores the claim words, and read only by a claimer whose CAS
//       on one of those words succeeded — so the claimer sees this
//       generation's fields.
//   F2  A frame completes only when all its queries are counted, and a
//       claimed chunk is counted only after it is answered: while a claimer
//       holds a chunk the slot cannot be freed, so its fields cannot be
//       rewritten under it.
//   F3  A slot's claim words are closed before `busy` is released, and a
//       reuse rewrites the slice bounds only after winning `busy`, storing
//       them with release; claim() loads them with acquire. A claimer that
//       reads a rewritten bound therefore also sees the closed word, so its
//       CAS fails even when it loaded the old word before the frame
//       completed. A ticket that outlives its frame (popped late, or by a
//       descheduled worker) thus claims nothing; it never reads the frame's
//       plain fields, so it never touches the caller's queries, results or
//       remaining.
//   F4  Generations are 32 bits per slot. A wrapped generation could match
//       only if a stale ticket's slot were reused 2^32 times while the
//       ticket waited; even then its claim would take a chunk of the live
//       frame under F1/F2 and answer it correctly.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "service/answer_path.hpp"

namespace pathsep::service {

class FrameTable {
 public:
  /// Queries one claim takes from a slice: one timed AnswerPath unit.
  static constexpr std::size_t kChunk = AnswerPath::kUnit;
  /// Owners one frame can have (open() tracks them in a 64-bit mask).
  static constexpr std::size_t kMaxOwners = 64;

  /// Stands for one frame in an owner's intake ring.
  struct Ticket {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  /// A claimed chunk: for k < count, i = order[k] names queries[i] and its
  /// answer slot results[i].
  struct Chunk {
    const Query* queries = nullptr;
    graph::Weight* results = nullptr;
    const std::uint32_t* order = nullptr;
    std::uint32_t count = 0;
  };

  FrameTable(std::size_t slots, std::size_t owners);

  FrameTable(const FrameTable&) = delete;
  FrameTable& operator=(const FrameTable&) = delete;

  /// Makes `queries` a frame in a free slot, pair i owned by owner_of(i)
  /// (< the table's owners); `touched` gets bit s for every owner s with a
  /// non-empty slice. Returns nullopt, touching nothing, when every slot is in
  /// flight. `queries`, `results` and `remaining` (which the frame's
  /// completion decrements by queries.size()) must stay valid until
  /// `remaining` reaches zero.
  template <typename OwnerOf>
  std::optional<Ticket> open(std::span<const Query> queries,
                             graph::Weight* results,
                             std::atomic<std::uint32_t>* remaining,
                             OwnerOf owner_of, std::uint64_t& touched);

  /// Claims the next chunk of owner `owner`'s slice of the ticket's frame
  /// into `chunk`; false when the slice is exhausted or the frame is gone.
  bool claim(Ticket ticket, std::size_t owner, Chunk& chunk);

  /// Counts `answered` claimed queries of the ticket's frame done; the last
  /// count frees the slot and completes the caller's `remaining`.
  void finish(Ticket ticket, std::uint32_t answered);

  /// Subtracts `answered` from `remaining` (release), notifying its waiter
  /// when it reaches zero.
  static void complete(std::atomic<std::uint32_t>* remaining,
                       std::uint32_t answered);

 private:
  friend struct FrameTableTestPeer;

  /// The cursor of a completed frame's claim words: past every slice.
  static constexpr std::uint32_t kClosed = 0xffffffff;

  /// (generation << 32) | next unclaimed chunk of one owner's slice.
  struct alignas(64) ClaimWord {
    std::atomic<std::uint64_t> word{0};
  };

  struct Frame {
    std::atomic<std::uint32_t> busy{0};  ///< 1 from open() to completion
    std::atomic<std::uint32_t> left{0};  ///< queries not yet counted done
    std::uint32_t gen = 0;               ///< this use's generation
    std::uint32_t size = 0;
    const Query* queries = nullptr;
    graph::Weight* results = nullptr;
    std::atomic<std::uint32_t>* remaining = nullptr;  ///< the caller's
    /// Slice s is order[begin[s], begin[s + 1]). Atomic so a stale claimer
    /// may read a bound it then does not use; release/acquire (F3).
    std::unique_ptr<std::atomic<std::uint32_t>[]> begin;
    std::unique_ptr<ClaimWord[]> claims;  ///< one per owner
    std::vector<std::uint32_t> order;     ///< pair indices, grouped by owner
    std::vector<std::uint8_t> owner;      ///< owner of each pair
  };

  /// A free slot, now busy; null when every slot is.
  Frame* acquire();
  /// Writes an acquired frame's slices: order[] grouped by owner, begin[]
  /// their bounds; `touched` as in open().
  template <typename OwnerOf>
  void bucket(Frame& frame, std::size_t size, OwnerOf owner_of,
              std::uint64_t& touched);
  /// claim() from a claim word loaded earlier.
  bool claim(Ticket ticket, std::size_t owner, std::uint64_t word,
             Chunk& chunk);
  /// Publishes an acquired, bucketed frame; returns its ticket.
  Ticket publish(Frame& frame, std::span<const Query> queries,
                 graph::Weight* results,
                 std::atomic<std::uint32_t>* remaining);

  std::size_t slots_;
  std::size_t owners_;
  std::unique_ptr<Frame[]> frames_;
  std::atomic<std::size_t> next_{0};  ///< where acquire() starts looking
};

template <typename OwnerOf>
std::optional<FrameTable::Ticket> FrameTable::open(
    std::span<const Query> queries, graph::Weight* results,
    std::atomic<std::uint32_t>* remaining, OwnerOf owner_of,
    std::uint64_t& touched) {
  Frame* const frame = acquire();
  if (frame == nullptr) return std::nullopt;
  bucket(*frame, queries.size(), owner_of, touched);
  return publish(*frame, queries, results, remaining);
}

template <typename OwnerOf>
void FrameTable::bucket(Frame& frame, std::size_t size, OwnerOf owner_of,
                        std::uint64_t& touched) {
  if (frame.order.size() < size) {
    frame.order.resize(size);  // grows to the largest frame, then stays
    frame.owner.resize(size);
  }
  // Counting sort of the pair indices by owner.
  std::array<std::uint32_t, kMaxOwners + 1> at{};
  for (std::size_t i = 0; i < size; ++i) {
    const auto s = static_cast<std::uint8_t>(owner_of(i));
    frame.owner[i] = s;
    ++at[s + 1];
  }
  touched = 0;
  // Release: a stale claimer that reads a new bound also sees the claim
  // words finish() closed before the slot was freed (F3).
  for (std::size_t s = 0; s < owners_; ++s) {
    if (at[s + 1] != 0) touched |= std::uint64_t{1} << s;
    at[s + 1] += at[s];
    frame.begin[s].store(at[s], std::memory_order_release);
  }
  frame.begin[owners_].store(static_cast<std::uint32_t>(size),
                             std::memory_order_release);
  for (std::size_t i = 0; i < size; ++i)
    frame.order[at[frame.owner[i]]++] = static_cast<std::uint32_t>(i);
}

}  // namespace pathsep::service
