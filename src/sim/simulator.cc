#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace crsm {

void Simulator::at(Tick t, Fn fn) {
  if (t < now_) t = now_;  // clamp; scheduling in the past means "immediately"
  queue_.push_back(Event{t, next_seq_++, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // The event leaves the heap before it runs, so the handler may schedule
  // further events safely.
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event e = std::move(queue_.back());
  queue_.pop_back();
  now_ = e.time;
  ++executed_;
  e.fn();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(Tick t) {
  while (!queue_.empty() && queue_.front().time <= t) step();
  if (now_ < t) now_ = t;
}

}  // namespace crsm
