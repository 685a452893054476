// pathsep-lint: hot-path — open, claim and finish sit under every frame the
// sharded engine dispatches; the slots and their claim words are allocated
// once, in the constructor.
#include "service/frame_table.hpp"

#include <stdexcept>

namespace pathsep::service {

FrameTable::FrameTable(std::size_t slots, std::size_t owners)
    : slots_(slots), owners_(owners) {
  if (slots == 0 || owners == 0 || owners > kMaxOwners)
    throw std::invalid_argument("FrameTable needs slots >= 1 and owners in "
                                "[1, 64]");
  // pathsep-lint: allow(hot-path-alloc)
  frames_ = std::make_unique<Frame[]>(slots);
  for (std::size_t f = 0; f < slots; ++f) {
    // pathsep-lint: allow(hot-path-alloc)
    frames_[f].begin = std::make_unique<std::atomic<std::uint32_t>[]>(
        owners + 1);
    // pathsep-lint: allow(hot-path-alloc)
    frames_[f].claims = std::make_unique<ClaimWord[]>(owners);
  }
}

FrameTable::Frame* FrameTable::acquire() {
  const std::size_t start = next_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t k = 0; k < slots_; ++k) {
    Frame& frame = frames_[(start + k) % slots_];
    std::uint32_t idle = 0;
    // Acquire pairs with finish()'s release: the previous use's claimers
    // are done with the slot's fields before they are rewritten (F2).
    if (frame.busy.load(std::memory_order_relaxed) == 0 &&
        frame.busy.compare_exchange_strong(idle, 1,
                                           std::memory_order_acquire))
      return &frame;
  }
  return nullptr;
}

FrameTable::Ticket FrameTable::publish(Frame& frame,
                                       std::span<const Query> queries,
                                       graph::Weight* results,
                                       std::atomic<std::uint32_t>* remaining) {
  frame.queries = queries.data();
  frame.results = results;
  frame.remaining = remaining;
  frame.size = static_cast<std::uint32_t>(queries.size());
  frame.left.store(frame.size, std::memory_order_relaxed);
  const std::uint32_t gen = ++frame.gen;
  // Release: a claimer that loads one of these words sees every field
  // above (F1).
  for (std::size_t s = 0; s < owners_; ++s)
    frame.claims[s].word.store(std::uint64_t{gen} << 32,
                               std::memory_order_release);
  return Ticket{static_cast<std::uint32_t>(&frame - frames_.get()), gen};
}

bool FrameTable::claim(Ticket ticket, std::size_t owner, Chunk& chunk) {
  return claim(ticket, owner,
               frames_[ticket.slot].claims[owner].word.load(
                   std::memory_order_acquire),
               chunk);
}

bool FrameTable::claim(Ticket ticket, std::size_t owner, std::uint64_t word,
                       Chunk& chunk) {
  Frame& frame = frames_[ticket.slot];
  std::atomic<std::uint64_t>& claim = frame.claims[owner].word;
  for (;;) {
    // Another generation: the ticket's frame completed and the slot moved
    // on. An exhausted or closed cursor: the slice is all claimed. Either
    // way only atomics were read (F3).
    if (static_cast<std::uint32_t>(word >> 32) != ticket.gen) return false;
    // Acquire: a bound rewritten by the slot's next use comes with the
    // closed claim word, so the CAS below fails (F3).
    const std::uint32_t first =
        frame.begin[owner].load(std::memory_order_acquire);
    const std::uint32_t end =
        frame.begin[owner + 1].load(std::memory_order_acquire);
    const std::uint64_t at = first + (word & 0xffffffffULL) * kChunk;
    if (at >= end) return false;
    if (claim.compare_exchange_weak(word, word + 1, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      // The frame cannot complete before this chunk is counted (F2).
      chunk.queries = frame.queries;
      chunk.results = frame.results;
      chunk.order = frame.order.data() + at;
      chunk.count = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(kChunk, end - at));
      return true;
    }
    // `word` was reloaded: another claimer moved the cursor.
  }
}

void FrameTable::finish(Ticket ticket, std::uint32_t answered) {
  Frame& frame = frames_[ticket.slot];
  // acq_rel: every claimer's result writes happen before the last count,
  // which passes them on to the caller through complete().
  if (frame.left.fetch_sub(answered, std::memory_order_acq_rel) != answered)
    return;
  std::atomic<std::uint32_t>* const remaining = frame.remaining;
  const std::uint32_t size = frame.size;
  // Close every slice before the slot can be reused: a claimer still
  // holding a word of this generation fails its CAS (F3).
  const std::uint64_t closed = (std::uint64_t{ticket.gen} << 32) | kClosed;
  for (std::size_t s = 0; s < owners_; ++s)
    frame.claims[s].word.store(closed, std::memory_order_relaxed);
  frame.busy.store(0, std::memory_order_release);  // the slot is free again
  complete(remaining, size);
}

void FrameTable::complete(std::atomic<std::uint32_t>* remaining,
                          std::uint32_t answered) {
  // Release pairs with the waiter's acquire: by the time it observes zero,
  // every result slot write is visible. Notify only on the last decrement —
  // the waiter checks the value before sleeping, so a notify can never be
  // lost between its load and its wait.
  if (remaining->fetch_sub(answered, std::memory_order_acq_rel) == answered)
    remaining->notify_all();
}

}  // namespace pathsep::service
