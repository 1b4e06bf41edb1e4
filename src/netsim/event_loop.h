// A minimal discrete-event simulator: a virtual clock plus a pending-timer
// store. Events at equal times fire in scheduling order.
//
// The store is a hierarchical timer wheel (O(1) insert/pop at millions of
// pending timers — one Poisson stream per fleet member at paper scale).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "netsim/geo.h"
#include "netsim/timer_wheel.h"

namespace ecsdns::netsim {

class EventLoop {
 public:
  using Callback = std::function<void()>;

  // Sentinel returned by next_event_time() on an empty queue.
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  SimTime now() const noexcept { return now_; }

  // Schedules `fn` to run `delay` from now (delay >= 0).
  void schedule_in(SimTime delay, Callback fn);
  // Schedules `fn` at an absolute virtual time (>= now).
  void schedule_at(SimTime when, Callback fn);

  // Advances the clock without running anything — used by the synchronous
  // RPC transport to account for propagation delay.
  void advance(SimTime delta);

  // Runs events until the queue is empty; returns how many events ran.
  std::size_t run();
  // Runs events with fire time <= deadline, then sets now to the deadline.
  std::size_t run_until(SimTime deadline);

  bool empty() const noexcept { return wheel_.empty(); }
  std::size_t pending() const noexcept { return wheel_.size(); }

  // Fire time of the earliest pending event, or kNever when the queue is
  // empty.
  SimTime next_event_time() const noexcept { return wheel_.peek_next_time(); }

 private:
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  TimerWheel<Callback> wheel_;
};

}  // namespace ecsdns::netsim
