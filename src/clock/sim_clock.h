// Simulated physical clock with configurable skew and drift.
#pragma once

#include <functional>

#include "common/types.h"

namespace crsm {

// Models an NTP-disciplined clock inside the discrete-event simulator.
// local_time = simulation_time * rate + skew, clamped to be strictly
// increasing across reads. Skew models a constant NTP offset; rate models
// oscillator drift (1.0 = perfect).
class SimClock {
 public:
  // `sim_now` reads the simulator's current virtual time in microseconds.
  SimClock(std::function<Tick()> sim_now, double skew_us = 0.0, double rate = 1.0);

  // Strictly increasing across reads (ProtocolEnv::clock_now's contract).
  [[nodiscard]] Tick now_us();

  // Converts a delay expressed in this clock's local time domain to the
  // simulator's time domain (used to honor timer requests under drift).
  [[nodiscard]] Tick local_delay_to_sim(Tick local_delay_us) const;

  [[nodiscard]] double skew_us() const { return skew_us_; }
  [[nodiscard]] double rate() const { return rate_; }

  // Mid-run mutation hooks (DST fault injection). Reads stay strictly
  // increasing: a backward step makes the clock plateau (advance by 1 us per
  // read) until raw time catches up, which is exactly how a monotone-clamped
  // NTP client behaves.
  //
  // step_us(): an NTP-style step of the clock by `delta_us` (may be
  // negative) at the current instant.
  void step_us(double delta_us);
  // set_rate(): changes the oscillator rate without stepping the clock —
  // local time is continuous at the change point, only its slope changes.
  void set_rate(double rate);

 private:
  [[nodiscard]] double raw_now() const;
  void rebase();

  std::function<Tick()> sim_now_;
  double skew_us_;  // initial skew, kept for introspection
  double rate_;
  // Piecewise-linear local time: raw(sim) = local_at_anchor_ +
  // (sim - anchor_sim_) * rate_. Mutations rebase the anchor to "now".
  Tick anchor_sim_ = 0;
  double local_at_anchor_ = 0.0;
  Tick last_ = 0;
};

}  // namespace crsm
