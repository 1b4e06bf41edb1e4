// Hierarchical timer wheel: the EventLoop's pending-event store, built for
// millions of concurrent timers (one per fleet member at paper scale).
//
// Layout: 8 levels x 64 slots. Level L buckets times by bits [6L, 6L+6) of
// the absolute fire time; an entry lives at the highest level where its
// time's 6-bit digit differs from the wheel cursor's ("highest differing
// digit"). Level-0 slots therefore hold exactly one timestamp each, so a
// pop is: scan the level-0 occupancy bitmap (one ctz), or cascade the next
// occupied higher-level slot down and retry. Insert is O(1); pop is O(1)
// amortized — each entry cascades at most once per level over its lifetime.
//
// Ordering contract (load-bearing for determinism): pop_next() yields
// entries in exactly (when, seq) order, the same total order as a binary
// heap, including entries pushed while draining a same-time batch. The
// serial-equivalence oracle depends on this; tests/test_timer_wheel.cpp
// checks it against a reference heap.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "netsim/geo.h"

namespace ecsdns::netsim {

template <typename T>
struct TimerEntry {
  SimTime when;
  std::uint64_t seq;
  T payload;
};

template <typename T>
class TimerWheel {
 public:
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  static constexpr int kLevelBits = 6;
  static constexpr int kSlots = 1 << kLevelBits;  // 64
  static constexpr int kLevels = 8;               // covers 2^48 us (~8.9y)

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  // Inserts an entry. `when` must be >= the time of the last pop (the
  // wheel cursor); the EventLoop guarantees this by rejecting
  // scheduling in the past.
  void push(SimTime when, std::uint64_t seq, T payload) {
    place(TimerEntry<T>{when, seq, std::move(payload)});
    ++size_;
  }

  // Fire time of the earliest entry, or kNever when empty. Exact: the
  // lowest occupied level's lowest occupied slot contains the global
  // minimum (higher levels only hold strictly later times).
  SimTime peek_next_time() const noexcept {
    if (size_ == 0) return kNever;
    for (int level = 0; level < kLevels; ++level) {
      if (occupied_[level] == 0) continue;
      int slot = lowest_occupied(level);
      if (level == 0) {
        // A level-0 slot holds exactly one timestamp.
        return slots_[0][static_cast<std::size_t>(slot)].front().when;
      }
      const auto& bucket = slots_[level][static_cast<std::size_t>(slot)];
      SimTime best = bucket.front().when;
      for (const auto& e : bucket) best = std::min(best, e.when);
      return best;
    }
    SimTime best = overflow_.front().when;
    for (const auto& e : overflow_) best = std::min(best, e.when);
    return best;
  }

  // Removes and returns the globally minimal (when, seq) entry.
  // Returns false when empty.
  bool pop_next(TimerEntry<T>& out) {
    if (size_ == 0) return false;
    for (;;) {
      if (occupied_[0] != 0) {
        int slot = lowest_occupied(0);
        auto& bucket = slots_[0][static_cast<std::size_t>(slot)];
        // Entries in a level-0 slot share one `when`; take the min seq.
        std::size_t best = 0;
        for (std::size_t i = 1; i < bucket.size(); ++i) {
          if (bucket[i].seq < bucket[best].seq) best = i;
        }
        out = std::move(bucket[best]);
        bucket[best] = std::move(bucket.back());
        bucket.pop_back();
        if (bucket.empty()) occupied_[0] &= ~(1ull << slot);
        cursor_ = out.when;
        --size_;
        return true;
      }
      cascade_lowest();
    }
  }

 private:
  static int digit(SimTime t, int level) noexcept {
    return static_cast<int>(
        (static_cast<std::uint64_t>(t) >> (kLevelBits * level)) &
        (kSlots - 1));
  }

  static int lowest_occupied(std::uint64_t bits) = delete;
  int lowest_occupied(int level) const noexcept {
    return __builtin_ctzll(occupied_[static_cast<std::size_t>(level)]);
  }

  // Level for `when` relative to the cursor: index of the highest 6-bit
  // digit where they differ (0 when equal). kLevels means "beyond the
  // wheel horizon" -> overflow list.
  int level_for(SimTime when) const noexcept {
    std::uint64_t diff =
        static_cast<std::uint64_t>(when) ^ static_cast<std::uint64_t>(cursor_);
    if (diff == 0) return 0;
    int bit = 63 - __builtin_clzll(diff);
    return bit / kLevelBits;
  }

  void place(TimerEntry<T> entry) {
    int level = level_for(entry.when);
    if (level >= kLevels) {
      overflow_.push_back(std::move(entry));
      return;
    }
    int slot = digit(entry.when, level);
    slots_[static_cast<std::size_t>(level)][static_cast<std::size_t>(slot)]
        .push_back(std::move(entry));
    occupied_[static_cast<std::size_t>(level)] |= 1ull << slot;
  }

  // No due level-0 slot: advance the cursor to the next occupied
  // higher-level slot's window base and re-place its entries one level
  // (or more) down. size_ > 0 guarantees progress.
  void cascade_lowest() {
    for (int level = 1; level < kLevels; ++level) {
      if (occupied_[level] == 0) continue;
      int slot = lowest_occupied(level);
      // Jump the cursor to the start of that slot's span: keep digits
      // above `level`, set digit at `level` to `slot`, zero the rest.
      std::uint64_t span = 1ull << (kLevelBits * level);
      std::uint64_t base =
          (static_cast<std::uint64_t>(cursor_) & ~(span * kSlots - 1)) |
          (static_cast<std::uint64_t>(slot) * span);
      cursor_ = static_cast<SimTime>(base);
      // Swap the bucket out through a reused scratch buffer instead of
      // moving it: a move would steal the slot vector's capacity and make
      // every future refill of this slot reallocate from scratch — at
      // paper scale that is one heap allocation per timer. Swapping
      // circulates capacity between the slots and the scratch vector, so
      // steady-state churn allocates nothing.
      scratch_.swap(slots_[level][static_cast<std::size_t>(slot)]);
      occupied_[level] &= ~(1ull << slot);
      for (auto& e : scratch_) place(std::move(e));
      scratch_.clear();
      return;
    }
    // All levels empty: everything lives in the overflow list. Re-anchor
    // the cursor at the overflow minimum and re-place. (Same swap trick:
    // place() may push entries still beyond the horizon back into
    // overflow_, which is a distinct buffer after the swap.)
    SimTime min_when = overflow_.front().when;
    for (const auto& e : overflow_) min_when = std::min(min_when, e.when);
    cursor_ = min_when;
    scratch_.swap(overflow_);
    for (auto& e : scratch_) place(std::move(e));
    scratch_.clear();
  }

  SimTime cursor_ = 0;
  std::size_t size_ = 0;
  std::uint64_t occupied_[kLevels] = {};
  std::vector<TimerEntry<T>> slots_[kLevels][kSlots];
  std::vector<TimerEntry<T>> overflow_;
  std::vector<TimerEntry<T>> scratch_;  // cascade drain buffer, capacity reused
};

}  // namespace ecsdns::netsim
