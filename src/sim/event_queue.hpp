#pragma once
// The discrete-event core of the NDFT timing simulator.
//
// Every hardware model (DRAM controller, NoC link, core, arbiter) schedules
// callbacks on a single global EventQueue. Events at the same timestamp run
// in schedule order (FIFO), which makes the simulation deterministic.
//
// The per-event path allocates nothing in steady state:
//  - the binary heap orders 24-byte POD keys {when, seq, slot}, so a sift
//    moves only keys; `seq` is the FIFO tie-break among same-time events;
//  - the callables live in fixed slots of chunked storage (chunks never
//    move) recycled through a LIFO free list, and run in place;
//  - EventFn and CompletionFn keep their captures inline (InlineFunction);
//    only captures larger than the inline buffer are boxed on the heap.
// Slot, chunk and heap capacity grow together, so once the queue has
// reached its peak occupancy scheduling never allocates again.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "sim/inline_function.hpp"

namespace ndft::sim {

/// Callback type executed when an event fires. 96 inline bytes hold every
/// closure the memory models schedule (the largest, DramSystem's
/// interconnect hop, carries a MemRequest plus its DRAM coordinate).
using EventFn = InlineFunction<void(), 96>;

/// Completion callback receiving the simulated time the operation finished:
/// mem::MemCallback, noc::DeliveryFn and the Spm callbacks. 32 inline bytes
/// hold the cores' and caches' closures and a wrapped std::function.
using CompletionFn = InlineFunction<void(TimePs), 32>;

/// A deterministic discrete-event scheduler with integer-picosecond time.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current simulated time. Advances only inside run()/run_until().
  TimePs now() const noexcept { return now_; }

  /// Schedules `fn` to run at absolute time `when` (>= now()).
  void schedule_at(TimePs when, EventFn fn);

  /// Schedules `fn` to run `delay` picoseconds from now.
  void schedule_after(TimePs delay, EventFn fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Runs events until the queue drains. Returns the time of the last event.
  /// An exception thrown by an event propagates after that event has been
  /// removed and counted; the queue stays usable.
  TimePs run();

  /// Runs events with timestamp <= `deadline`, then clamps: now() lands
  /// exactly on `deadline` even when the queue drains early or events
  /// remain scheduled past it. Returns now() (== deadline unless the
  /// queue was already past it, in which case time does not move
  /// backwards). Pinned by sim_test RunUntil* tests.
  TimePs run_until(TimePs deadline);

  /// Number of events waiting to fire.
  std::size_t pending() const noexcept { return heap_.size(); }

  /// Total events executed since construction (for budget checks in tests).
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct Key {
    TimePs when;
    std::uint64_t seq;   // tie-breaker: FIFO among same-time events
    std::uint32_t slot;  // where the callable lives
  };
  static_assert(sizeof(Key) == 24);

  /// Heap order: (when, seq) compared as one 128-bit integer, which
  /// compiles to a branch-free comparison. seq is unique, so no ties.
  static bool earlier(const Key& a, const Key& b) noexcept {
    using Wide = unsigned __int128;
    return ((Wide{a.when} << 64) | a.seq) < ((Wide{b.when} << 64) | b.seq);
  }

  static constexpr std::uint32_t kChunkShift = 10;  // 1024 slots per chunk
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

  EventFn& slot(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkShift][index & (kChunkSlots - 1)];
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index) noexcept;
  Key pop_key() noexcept;
  void pop_and_run();

  std::vector<Key> heap_;  // binary min-heap on (when, seq)
  std::vector<std::unique_ptr<EventFn[]>> chunks_;
  std::vector<std::uint32_t> free_;  // released slots, reused LIFO
  std::uint32_t slots_ = 0;          // slots handed out so far
  TimePs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace ndft::sim
