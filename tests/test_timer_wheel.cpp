// The timer wheel's ordering contract: pop_next() yields exactly the
// (when, seq) total order of a binary heap, under every shape of churn the
// EventLoop produces — same-time batches, pushes during drains, far-future
// entries beyond the wheel horizon, cursor jumps across empty stretches.
// The EventLoop's firing order is pinned by a digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "netsim/event_loop.h"
#include "netsim/rng.h"
#include "netsim/timer_wheel.h"

namespace ecsdns::netsim {
namespace {

using Entry = TimerEntry<int>;

// Reference oracle: a binary heap over (when, seq), the order the wheel
// must reproduce exactly.
class ReferenceHeap {
 public:
  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  void push(SimTime when, std::uint64_t seq, int payload) {
    heap_.push_back(Entry{when, seq, payload});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  SimTime peek_next_time() const noexcept {
    return heap_.empty() ? TimerWheel<int>::kNever : heap_.front().when;
  }

  bool pop_next(Entry& out) {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    out = heap_.back();
    heap_.pop_back();
    return true;
  }

 private:
  static bool later(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
  std::vector<Entry> heap_;
};

// Drains both queues in lockstep, asserting identical (when, seq, payload)
// at every step.
template <typename A, typename B>
void expect_same_drain(A& a, B& b) {
  Entry ea, eb;
  while (true) {
    const bool more_a = a.pop_next(ea);
    const bool more_b = b.pop_next(eb);
    ASSERT_EQ(more_a, more_b);
    if (!more_a) break;
    ASSERT_EQ(ea.when, eb.when);
    ASSERT_EQ(ea.seq, eb.seq);
    ASSERT_EQ(ea.payload, eb.payload);
  }
}

TEST(TimerWheel, EmptyWheelBehaves) {
  TimerWheel<int> wheel;
  EXPECT_TRUE(wheel.empty());
  EXPECT_EQ(wheel.size(), 0u);
  EXPECT_EQ(wheel.peek_next_time(), TimerWheel<int>::kNever);
  Entry e;
  EXPECT_FALSE(wheel.pop_next(e));
}

TEST(TimerWheel, SingleEntryRoundTrip) {
  TimerWheel<int> wheel;
  wheel.push(1234, 0, 42);
  EXPECT_EQ(wheel.size(), 1u);
  EXPECT_EQ(wheel.peek_next_time(), 1234);
  Entry e;
  ASSERT_TRUE(wheel.pop_next(e));
  EXPECT_EQ(e.when, 1234);
  EXPECT_EQ(e.payload, 42);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, SameTimeEntriesPopInSeqOrder) {
  TimerWheel<int> wheel;
  // Pushed out of seq order on purpose.
  wheel.push(500, 2, 2);
  wheel.push(500, 0, 0);
  wheel.push(500, 1, 1);
  for (int expect = 0; expect < 3; ++expect) {
    Entry e;
    ASSERT_TRUE(wheel.pop_next(e));
    EXPECT_EQ(e.when, 500);
    EXPECT_EQ(e.payload, expect);
  }
}

TEST(TimerWheel, PushAtCursorTimeDuringDrain) {
  // The EventLoop schedules zero-delay work while firing a batch; those
  // entries must fire after already-pending same-time entries (seq order).
  TimerWheel<int> wheel;
  wheel.push(100, 0, 0);
  wheel.push(100, 1, 1);
  Entry e;
  ASSERT_TRUE(wheel.pop_next(e));
  EXPECT_EQ(e.payload, 0);
  wheel.push(100, 2, 2);  // same time as the cursor, mid-drain
  ASSERT_TRUE(wheel.pop_next(e));
  EXPECT_EQ(e.payload, 1);
  ASSERT_TRUE(wheel.pop_next(e));
  EXPECT_EQ(e.payload, 2);
}

TEST(TimerWheel, FarFutureEntriesOverflowAndReturn) {
  TimerWheel<int> wheel;
  const SimTime horizon = SimTime{1} << 48;  // beyond 8 levels x 6 bits
  wheel.push(horizon + 7, 0, 1);
  wheel.push(3, 1, 2);
  EXPECT_EQ(wheel.peek_next_time(), 3);
  Entry e;
  ASSERT_TRUE(wheel.pop_next(e));
  EXPECT_EQ(e.payload, 2);
  EXPECT_EQ(wheel.peek_next_time(), horizon + 7);
  ASSERT_TRUE(wheel.pop_next(e));
  EXPECT_EQ(e.when, horizon + 7);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, RandomChurnMatchesHeapExactly) {
  // The load-bearing property. Random interleavings of pushes and pops at
  // exponential and clustered times; after every operation both queues
  // agree on peek, and the final drains are identical.
  Rng rng(99);
  TimerWheel<int> wheel;
  ReferenceHeap heap;
  SimTime low_water = 0;  // last popped time; pushes must be >= this
  std::uint64_t seq = 0;
  int payload = 0;
  for (int op = 0; op < 20000; ++op) {
    if (wheel.empty() || rng.chance(0.6)) {
      SimTime when = low_water;
      switch (rng.uniform(4)) {
        case 0: when += static_cast<SimTime>(rng.exponential(1e6)); break;
        case 1: when += static_cast<SimTime>(rng.uniform(64)); break;  // clustered near cursor
        case 2: when += static_cast<SimTime>(rng.uniform(1u << 20)); break;
        default:
          // Occasionally beyond the wheel horizon.
          when += (SimTime{1} << 48) + static_cast<SimTime>(rng.uniform(1000));
          break;
      }
      wheel.push(when, seq, payload);
      heap.push(when, seq, payload);
      ++seq;
      ++payload;
    } else {
      Entry ew, eh;
      ASSERT_TRUE(wheel.pop_next(ew));
      ASSERT_TRUE(heap.pop_next(eh));
      ASSERT_EQ(ew.when, eh.when);
      ASSERT_EQ(ew.seq, eh.seq);
      ASSERT_EQ(ew.payload, eh.payload);
      low_water = ew.when;
    }
    ASSERT_EQ(wheel.size(), heap.size());
    ASSERT_EQ(wheel.peek_next_time(), heap.peek_next_time());
  }
  expect_same_drain(wheel, heap);
}

TEST(TimerWheel, MillionEntriesDrainSorted) {
  Rng rng(5);
  TimerWheel<int> wheel;
  std::vector<SimTime> times;
  times.reserve(1000000);
  for (int i = 0; i < 1000000; ++i) {
    const auto when = static_cast<SimTime>(rng.exponential(3.0e8));
    times.push_back(when);
    wheel.push(when, static_cast<std::uint64_t>(i), i);
  }
  std::sort(times.begin(), times.end());
  Entry e;
  SimTime prev = 0;
  std::uint64_t prev_seq = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    ASSERT_TRUE(wheel.pop_next(e));
    ASSERT_EQ(e.when, times[i]);
    if (i > 0 && e.when == prev) {
      ASSERT_GT(e.seq, prev_seq);  // seq breaks ties, ascending
    }
    prev = e.when;
    prev_seq = e.seq;
  }
  EXPECT_TRUE(wheel.empty());
}

// ---------------------------------------------------------------------------
// EventLoop.

TEST(EventLoop, FiresInScheduleOrderAtEqualTimes) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(10, [&] { order.push_back(2); });
  loop.schedule_at(5, [&] { order.push_back(0); });
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(loop.now(), 10u);
}

TEST(EventLoop, RejectsSchedulingInThePast) {
  EventLoop loop;
  loop.schedule_at(100, [] {});
  loop.run();
  EXPECT_THROW(loop.schedule_at(99, [] {}), std::invalid_argument);
  loop.schedule_at(100, [] {});  // == now is allowed
  EXPECT_EQ(loop.run(), 1u);
}

TEST(EventLoop, RunUntilStopsAtDeadlineThenIdlesForward) {
  EventLoop loop;
  std::vector<int> fired;
  loop.schedule_at(10, [&] { fired.push_back(10); });
  loop.schedule_at(20, [&] { fired.push_back(20); });
  loop.schedule_at(30, [&] { fired.push_back(30); });
  EXPECT_EQ(loop.run_until(20), 2u);
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(loop.now(), 20u);
  EXPECT_EQ(loop.next_event_time(), 30u);
  EXPECT_EQ(loop.run_until(25), 0u);
  EXPECT_EQ(loop.now(), 25u);
}

TEST(EventLoop, AdvancePastPendingThenRun) {
  // advance() can push now beyond pending timers (the RPC transport does);
  // the overdue events still fire, at the advanced clock.
  EventLoop loop;
  std::vector<SimTime> at;
  loop.schedule_at(10, [&] { at.push_back(loop.now()); });
  loop.advance(50);
  loop.schedule_at(60, [&] { at.push_back(loop.now()); });
  EXPECT_EQ(loop.run(), 2u);
  EXPECT_EQ(at, (std::vector<SimTime>{50, 60}));
}

TEST(EventLoop, SelfReschedulingChain) {
  EventLoop loop;
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 100) loop.schedule_in(7, tick);
  };
  loop.schedule_in(7, tick);
  EXPECT_EQ(loop.run(), 100u);
  EXPECT_EQ(loop.now(), 700u);
}

TEST(EventLoop, RandomWorkloadFiringLogIsPinned) {
  // A randomized self-scheduling workload's firing log (time, id), folded
  // into an FNV-1a digest. The constant is the order a binary heap gives
  // this workload (checked against one when it was captured), so any
  // change to the firing order of same-time or pushed-during-drain events
  // shows here.
  EventLoop loop;
  Rng rng(31);
  int next_id = 0;
  std::size_t fired = 0;
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis
  const auto fold = [&digest](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (v >> (8 * byte)) & 0xffu;
      digest *= 1099511628211ull;  // FNV-1a prime
    }
  };
  std::function<void(int)> fire = [&](int id) {
    fold(static_cast<std::uint64_t>(loop.now()));
    fold(static_cast<std::uint64_t>(id));
    ++fired;
    for (int child = 0; child < static_cast<int>(rng.uniform(3)); ++child) {
      if (next_id >= 3000) return;
      const int cid = next_id++;
      loop.schedule_in(static_cast<SimTime>(rng.uniform(1000)),
                       [&, cid] { fire(cid); });
    }
  };
  for (int i = 0; i < 50; ++i) {
    const int id = next_id++;
    loop.schedule_at(static_cast<SimTime>(rng.uniform(500)),
                     [&, id] { fire(id); });
  }
  EXPECT_EQ(loop.run(), fired);
  EXPECT_EQ(fired, 219u);
  EXPECT_EQ(digest, 0x8bb6aaad0db0b164ull);
}

}  // namespace
}  // namespace ecsdns::netsim
