// Deterministic discrete-event simulator core.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"

namespace crsm {

// A virtual-time event loop. Events at equal times run in scheduling order
// (a monotone sequence number breaks ties), which makes every run with the
// same seed bit-for-bit reproducible.
class Simulator {
 public:
  using Fn = std::function<void()>;

  [[nodiscard]] Tick now() const { return now_; }

  // Schedules `fn` at absolute virtual time `t` (>= now).
  void at(Tick t, Fn fn);
  // Schedules `fn` after `delay` microseconds of virtual time.
  void after(Tick delay, Fn fn) { at(now_ + delay, std::move(fn)); }

  // Runs one event; returns false if the queue is empty.
  bool step();
  // Runs until the queue drains.
  void run();
  // Runs events with time <= t, then sets now to t.
  void run_until(Tick t);

  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    Tick time;
    std::uint64_t seq;
    Fn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  // A binary heap under Later (std::push_heap/pop_heap): unlike
  // priority_queue, whose top() is const, it lets step() move the earliest
  // event out instead of copying its std::function.
  std::vector<Event> queue_;
};

}  // namespace crsm
