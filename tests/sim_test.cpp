// Unit tests for the discrete-event engine and statistics.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "mem/address_map.hpp"
#include "mem/mem_request.hpp"
#include "sim/event_queue.hpp"
#include "sim/sim_object.hpp"
#include "sim/stats.hpp"

namespace ndft::sim {
namespace {

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(300, [&] { order.push_back(3); });
  queue.schedule_at(100, [&] { order.push_back(1); });
  queue.schedule_at(200, [&] { order.push_back(2); });
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.now(), 300u);
}

TEST(EventQueueTest, SameTimestampIsFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  queue.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue queue;
  int fired = 0;
  queue.schedule_at(10, [&] {
    ++fired;
    queue.schedule_after(5, [&] { ++fired; });
  });
  queue.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(queue.now(), 15u);
}

TEST(EventQueueTest, RejectsPastEvents) {
  EventQueue queue;
  queue.schedule_at(100, [] {});
  queue.run();
  EXPECT_THROW(queue.schedule_at(50, [] {}), NdftError);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue queue;
  int fired = 0;
  queue.schedule_at(10, [&] { ++fired; });
  queue.schedule_at(100, [&] { ++fired; });
  queue.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.now(), 50u);
  EXPECT_EQ(queue.pending(), 1u);
  queue.run();
  EXPECT_EQ(fired, 2);
}

// run_until pins: now() lands exactly on the deadline (a clean clamp) —
// when events remain past it, when the queue drains early, and never
// backwards once time has passed the deadline.
TEST(EventQueueTest, RunUntilClampsExactlyToDeadlineWithEventsRemaining) {
  EventQueue queue;
  queue.schedule_at(10, [] {});
  queue.schedule_at(100, [] {});
  EXPECT_EQ(queue.run_until(50), 50u);
  EXPECT_EQ(queue.now(), 50u);  // not 10 (last event), not 100 (next event)
  EXPECT_EQ(queue.pending(), 1u);
}

TEST(EventQueueTest, RunUntilAdvancesToDeadlineWhenQueueDrainsEarly) {
  EventQueue queue;
  queue.schedule_at(10, [] {});
  EXPECT_EQ(queue.run_until(75), 75u);
  EXPECT_EQ(queue.now(), 75u);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventQueueTest, RunUntilOnEmptyQueueStillAdvancesTime) {
  EventQueue queue;
  EXPECT_EQ(queue.run_until(40), 40u);
  EXPECT_EQ(queue.now(), 40u);
}

TEST(EventQueueTest, RunUntilNeverMovesTimeBackwards) {
  EventQueue queue;
  queue.schedule_at(100, [] {});
  queue.run();
  EXPECT_EQ(queue.now(), 100u);
  EXPECT_EQ(queue.run_until(50), 100u);  // past deadline: clamp is a no-op
  EXPECT_EQ(queue.now(), 100u);
}

TEST(EventQueueTest, RunUntilRunsEventsScheduledExactlyAtDeadline) {
  EventQueue queue;
  int fired = 0;
  queue.schedule_at(50, [&] { ++fired; });
  queue.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.now(), 50u);
}

TEST(EventQueueTest, CountsExecutedEvents) {
  EventQueue queue;
  for (int i = 0; i < 25; ++i) {
    queue.schedule_after(static_cast<TimePs>(i), [] {});
  }
  queue.run();
  EXPECT_EQ(queue.executed(), 25u);
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue queue;
  TimePs inner_fired_at = 0;
  queue.schedule_at(100, [&] {
    queue.schedule_after(30, [&] { inner_fired_at = queue.now(); });
  });
  queue.run();
  EXPECT_EQ(inner_fired_at, 130u);
}

// ---------------------------------------------------------------------------
// The event core against a reference model. A std::priority_queue ordered on
// (when, seq) decides which event is due; the queue under test must fire
// exactly that event at exactly that time, across same-timestamp bursts,
// events that schedule events, run_until cuts, and all three capture
// storage kinds (trivially copyable, non-trivial inline, heap-boxed).

struct ModelEvent {
  TimePs when;
  std::uint64_t seq;
  std::uint64_t id;
};

struct ModelLater {
  bool operator()(const ModelEvent& a, const ModelEvent& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

class ReferenceHarness {
 public:
  static constexpr std::uint64_t kBudget = 20000;

  EventQueue queue;
  std::priority_queue<ModelEvent, std::vector<ModelEvent>, ModelLater> model;
  std::mt19937_64 rng{20261019};
  std::uint64_t scheduled = 0;
  std::vector<std::uint64_t> fired;     // ids in queue execution order
  std::vector<std::uint64_t> expected;  // ids in model order
  std::uint64_t wrong_time = 0;

  /// Mostly a few distinct small delays, so same-time collisions abound.
  TimePs random_delay() {
    switch (rng() % 4) {
      case 0: return 0;
      case 1: return rng() % 4;
      case 2: return 10 * (rng() % 8);
      default: return rng() % 5000;
    }
  }

  void schedule(TimePs delay) {
    const std::uint64_t id = scheduled++;
    const TimePs when = queue.now() + delay;
    model.push(ModelEvent{when, next_seq_++, id});
    switch (id % 3) {
      case 0:
        queue.schedule_at(when, [this, id] { fire(id); });
        break;
      case 1:
        queue.schedule_at(when, [this, id, tag = std::string(40, 'x')] {
          EXPECT_EQ(tag.size(), 40u);
          fire(id);
        });
        break;
      default: {
        std::array<std::uint64_t, 24> pad{};
        pad.back() = id;
        auto boxed = [this, pad] { fire(pad.back()); };
        static_assert(!EventFn::stores_inline<decltype(boxed)>());
        queue.schedule_at(when, std::move(boxed));
        break;
      }
    }
  }

 private:
  void fire(std::uint64_t id) {
    ASSERT_FALSE(model.empty());
    const ModelEvent due = model.top();
    model.pop();
    expected.push_back(due.id);
    fired.push_back(id);
    if (due.when != queue.now()) ++wrong_time;
    if (scheduled < kBudget) {
      for (std::uint64_t child = rng() % 3; child > 0; --child) {
        schedule(random_delay());
      }
    }
  }

  std::uint64_t next_seq_ = 0;
};

TEST(EventQueueTest, MatchesReferenceModelUnderRandomSchedules) {
  ReferenceHarness h;
  while (h.scheduled < ReferenceHarness::kBudget) {
    for (std::uint64_t burst = 1 + h.rng() % 16; burst > 0; --burst) {
      h.schedule(h.random_delay());
    }
    const TimePs deadline = h.queue.now() + h.rng() % 3000;
    EXPECT_EQ(h.queue.run_until(deadline), deadline);
    // Everything due by the cut has fired; nothing later has.
    EXPECT_TRUE(h.model.empty() || h.model.top().when > deadline);
    EXPECT_EQ(h.queue.pending(), h.model.size());
  }
  h.queue.run();
  EXPECT_TRUE(h.model.empty());
  EXPECT_GE(h.scheduled, ReferenceHarness::kBudget);
  EXPECT_EQ(h.queue.executed(), h.scheduled);
  EXPECT_EQ(h.wrong_time, 0u);
  ASSERT_EQ(h.fired.size(), h.expected.size());
  EXPECT_TRUE(h.fired == h.expected) << "execution order diverged";
}

// Counts live instances: a capture destroyed twice drives `live` negative,
// one never destroyed leaves it positive.
struct Tracked {
  static inline int live = 0;
  Tracked() { ++live; }
  Tracked(const Tracked&) { ++live; }
  Tracked(Tracked&&) noexcept { ++live; }
  Tracked& operator=(const Tracked&) = default;
  ~Tracked() { --live; }
};

/// A capture larger than EventFn's inline buffer.
struct BigPayload {
  std::array<std::uint64_t, 32> words{};
  Tracked tracked;
};

TEST(EventFnTest, AcceptsMoveOnlyCaptures) {
  EventQueue queue;
  int seen = 0;
  auto value = std::make_unique<int>(42);
  queue.schedule_at(5, [&seen, value = std::move(value)] { seen = *value; });
  queue.run();
  EXPECT_EQ(seen, 42);
}

TEST(EventFnTest, OversizedCaptureRunsAndIsDestroyedOnce) {
  Tracked::live = 0;
  {
    EventQueue queue;
    std::uint64_t sum = 0;
    auto big = [&sum, payload = BigPayload{}] {
      sum += payload.words.size();
    };
    static_assert(!EventFn::stores_inline<decltype(big)>());
    EXPECT_EQ(Tracked::live, 1);
    queue.schedule_at(10, std::move(big));  // boxed on the heap
    queue.schedule_at(20, [&sum] { sum += 100; });
    EXPECT_EQ(Tracked::live, 2);
    queue.run();
    EXPECT_EQ(sum, 132u);
    EXPECT_EQ(Tracked::live, 1);  // the boxed copy is gone; `big` remains
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(EventFnTest, MemoryModelClosuresStoreInline) {
  // The shapes the memory models schedule per event: a completion that
  // wraps a std::function, and DramSystem's interconnect hop (the largest:
  // owner pointer, a MemRequest and its DRAM coordinate).
  static_assert(CompletionFn::stores_inline<std::function<void(TimePs)>>());
  auto hop = [owner = static_cast<void*>(nullptr), req = mem::MemRequest{},
              coord = mem::DramCoord{}] { (void)owner; };
  static_assert(EventFn::stores_inline<decltype(hop)>());
  EventFn fn(std::move(hop));
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
}

TEST(EventQueueTest, RejectsEmptyCallbacks) {
  EventQueue queue;
  EXPECT_THROW(queue.schedule_at(1, std::function<void()>{}), NdftError);
  EXPECT_THROW(queue.schedule_at(1, EventFn{}), NdftError);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventQueueTest, ThrowingEventLeavesQueueConsistent) {
  Tracked::live = 0;
  EventQueue queue;
  int later = 0;
  queue.schedule_at(10, [tracked = Tracked{}] {
    (void)tracked;
    throw std::runtime_error("device fault");
  });
  queue.schedule_at(20, [&later] { ++later; });
  EXPECT_THROW(queue.run(), std::runtime_error);
  EXPECT_EQ(queue.now(), 10u);
  EXPECT_EQ(queue.executed(), 1u);
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_EQ(Tracked::live, 0);  // the failed event's capture is released
  // Still usable: new events interleave with the survivor in time order.
  queue.schedule_at(15, [&later] { later *= 10; });
  queue.run();
  EXPECT_EQ(later, 1);  // 0 * 10 at t=15, then + 1 at t=20
  EXPECT_EQ(queue.executed(), 3u);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventQueueTest, DestroyingQueueDestroysPendingCaptures) {
  Tracked::live = 0;
  {
    EventQueue queue;
    queue.schedule_at(10, [tracked = Tracked{}] { (void)tracked; });
    queue.schedule_at(20, [payload = BigPayload{}] { (void)payload; });
    queue.run_until(5);
    EXPECT_EQ(Tracked::live, 2);
    EXPECT_EQ(queue.pending(), 2u);
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(StatSetTest, AddAndGet) {
  StatSet stats;
  EXPECT_EQ(stats.get("missing"), 0.0);
  EXPECT_FALSE(stats.contains("missing"));
  stats.add("hits");
  stats.add("hits", 2.0);
  EXPECT_DOUBLE_EQ(stats.get("hits"), 3.0);
  stats.set("hits", 10.0);
  EXPECT_DOUBLE_EQ(stats.get("hits"), 10.0);
}

TEST(StatSetTest, MergePrefixed) {
  StatSet a;
  StatSet b;
  b.add("x", 5.0);
  a.merge_prefixed("child", b);
  EXPECT_DOUBLE_EQ(a.get("child.x"), 5.0);
  a.merge_prefixed("child", b);
  EXPECT_DOUBLE_EQ(a.get("child.x"), 10.0);  // merging accumulates
}

TEST(StatSetTest, RenderContainsEntries) {
  StatSet stats;
  stats.set("alpha", 1.5);
  const std::string out = stats.render();
  EXPECT_NE(out.find("alpha = 1.5"), std::string::npos);
}

TEST(HistogramTest, MeanMaxCount) {
  Histogram h(10.0, 10);
  h.record(5.0);
  h.record(15.0);
  h.record(25.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 15.0);
  EXPECT_DOUBLE_EQ(h.max(), 25.0);
}

TEST(HistogramTest, PercentileFromBuckets) {
  Histogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) {
    h.record(static_cast<double>(i) + 0.5);
  }
  EXPECT_NEAR(h.percentile(50), 50.0, 1.5);
  EXPECT_NEAR(h.percentile(90), 90.0, 1.5);
  EXPECT_NEAR(h.percentile(100), 99.5, 1.0);
}

TEST(HistogramTest, OverflowGoesToLastBucket) {
  Histogram h(1.0, 4);
  h.record(1000.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h(1.0, 4);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(SimObjectTest, NameAndQueueAccess) {
  EventQueue queue;
  SimObject object("top.child", queue);
  EXPECT_EQ(object.name(), "top.child");
  EXPECT_EQ(object.now(), 0u);
  object.stats().add("events");
  EXPECT_DOUBLE_EQ(object.stats().get("events"), 1.0);
}

}  // namespace
}  // namespace ndft::sim
