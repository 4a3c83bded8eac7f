#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace crsm {

void Simulator::at_seq(Tick t, std::uint64_t seq, Fn fn) {
  if (t < now_) t = now_;  // clamp; scheduling in the past means "immediately"
  auto slot = static_cast<std::uint32_t>(fns_.size());
  if (free_slots_.empty()) {
    fns_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    fns_[slot] = std::move(fn);
  }
  queue_.push_back(Event{t, seq, slot});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // The event leaves the heap (and its function its slot) before it runs,
  // so the handler may schedule further events safely.
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  const Event e = queue_.back();
  queue_.pop_back();
  Fn fn = std::move(fns_[e.slot]);
  free_slots_.push_back(e.slot);
  now_ = e.time;
  ++executed_;
  fn();
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
