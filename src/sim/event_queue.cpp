#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace ndft::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t index = free_.back();
    free_.pop_back();
    return index;
  }
  if ((slots_ & (kChunkSlots - 1)) == 0) {
    // Grow every per-slot container at once, before any state changes:
    // release_slot() and the heap push in schedule_at() then never
    // reallocate (live keys and free slots each number at most slots_).
    NDFT_REQUIRE(slots_ <= UINT32_MAX - kChunkSlots,
                 "event queue slot space exhausted");
    const std::size_t capacity = std::size_t{slots_} + kChunkSlots;
    const auto grow = [capacity](auto& v) {
      if (v.capacity() < capacity) {
        v.reserve(std::max(capacity, 2 * v.capacity()));
      }
    };
    grow(free_);
    grow(heap_);
    chunks_.push_back(std::make_unique<EventFn[]>(kChunkSlots));
  }
  return slots_++;
}

void EventQueue::release_slot(std::uint32_t index) noexcept {
  slot(index) = nullptr;
  free_.push_back(index);  // capacity reserved in acquire_slot()
}

void EventQueue::schedule_at(TimePs when, EventFn fn) {
  NDFT_ASSERT_MSG(when >= now_, "cannot schedule an event in the past");
  NDFT_ASSERT(fn != nullptr);
  const std::uint32_t index = acquire_slot();
  slot(index) = std::move(fn);
  const Key key{when, next_seq_++, index};
  // Sift up from a new leaf (capacity reserved in acquire_slot()).
  heap_.push_back(key);
  Key* h = heap_.data();
  std::size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!earlier(key, h[parent])) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = key;
}

EventQueue::Key EventQueue::pop_key() noexcept {
  Key* h = heap_.data();
  const Key top = h[0];
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  // Walk the root hole down to a leaf along the earlier child (a
  // branch-free select: the comparison outcome is unpredictable), then
  // sift the former last key up from there (it rarely climbs).
  std::size_t hole = 0;
  std::size_t right = 2;
  while (right < n) {
    const std::size_t child = right - earlier(h[right - 1], h[right]);
    h[hole] = h[child];
    hole = child;
    right = 2 * hole + 2;
  }
  if (right == n) {  // a lone left child
    h[hole] = h[right - 1];
    hole = right - 1;
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!earlier(last, h[parent])) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = last;
  return top;
}

void EventQueue::pop_and_run() {
  const Key key = pop_key();
  now_ = key.when;
  ++executed_;
  // Run the callable in place: chunks never move, and the slot is released
  // only after the callback returns, so events it schedules take others.
  try {
    slot(key.slot)();
  } catch (...) {
    release_slot(key.slot);
    throw;
  }
  release_slot(key.slot);
}

TimePs EventQueue::run() {
  while (!heap_.empty()) {
    pop_and_run();
  }
  return now_;
}

TimePs EventQueue::run_until(TimePs deadline) {
  while (!heap_.empty() && heap_.front().when <= deadline) {
    pop_and_run();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return now_;
}

}  // namespace ndft::sim
