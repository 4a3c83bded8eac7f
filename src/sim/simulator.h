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
  void at(Tick t, Fn fn) { at_seq(t, reserve_seq(), std::move(fn)); }
  // Schedules `fn` after `delay` microseconds of virtual time.
  void after(Tick delay, Fn fn) { at(now_ + delay, std::move(fn)); }

  // Deferred scheduling: reserve_seq() takes the tie-break rank an at() call
  // would take right now; at_seq() later schedules an event under it. An
  // event scheduled this way runs exactly where at(t, fn) at reservation
  // time would have run it. SimTransport uses the pair to keep only each
  // busy link's head message in the queue.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }
  void at_seq(Tick t, std::uint64_t seq, Fn fn);

  // Runs one event; returns false if the queue is empty.
  bool step();
  // Runs until the queue drains.
  void run();
  // Runs events with time <= t, then sets now to t.
  void run_until(Tick t);

  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  // Scheduled events. A busy SimTransport link counts once, however many
  // messages it has in flight.
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  // An event's place in the order; its function waits in fns_[slot].
  struct Event {
    Tick time = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
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
  // A binary heap under Later (std::push_heap/pop_heap) of small trivially
  // copyable keys: sifting moves 24 bytes, never a std::function.
  std::vector<Event> queue_;
  // Scheduled functions by slot; a slot is recycled once its event ran.
  std::vector<Fn> fns_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace crsm
