// Real monotonic clock used by the multithreaded runtime.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace crsm {

// Wraps the OS monotonic clock (the paper uses clock_gettime on Linux with
// NTP keeping wall time loosely synchronized). Within a single process all
// replicas share one time base, so "skew" is zero; an optional fixed offset
// lets tests and the runtime inject skew explicitly.
class SystemClock {
 public:
  explicit SystemClock(std::int64_t offset_us = 0);

  // Strictly increasing across reads (ProtocolEnv::clock_now's contract).
  [[nodiscard]] Tick now_us();

 private:
  std::int64_t offset_us_;
  Tick last_ = 0;
};

}  // namespace crsm
