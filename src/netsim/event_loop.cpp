#include "netsim/event_loop.h"

#include <stdexcept>
#include <utility>

namespace ecsdns::netsim {

void EventLoop::schedule_in(SimTime delay, Callback fn) {
  if (delay < 0) throw std::invalid_argument("negative delay");
  schedule_at(now_ + delay, std::move(fn));
}

void EventLoop::schedule_at(SimTime when, Callback fn) {
  if (when < now_) throw std::invalid_argument("scheduling in the past");
  wheel_.push(when, next_seq_++, std::move(fn));
}

void EventLoop::advance(SimTime delta) {
  if (delta < 0) throw std::invalid_argument("negative advance");
  now_ += delta;
}

std::size_t EventLoop::run() {
  std::size_t count = 0;
  TimerEntry<Callback> ev;
  while (wheel_.pop_next(ev)) {
    if (ev.when > now_) now_ = ev.when;
    ev.payload();
    ++count;
  }
  return count;
}

std::size_t EventLoop::run_until(SimTime deadline) {
  std::size_t count = 0;
  TimerEntry<Callback> ev;
  while (next_event_time() <= deadline && wheel_.pop_next(ev)) {
    if (ev.when > now_) now_ = ev.when;
    ev.payload();
    ++count;
  }
  if (deadline > now_) now_ = deadline;
  return count;
}

}  // namespace ecsdns::netsim
