// Shared types of crsm_bench: the operation history the open-loop
// generator records, and the named metrics every phase reports.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace crsm_bench {

// Nanoseconds on the monotonic clock. Every timestamp in a history is
// relative to the run's epoch (the start of the warmup phase).
[[nodiscard]] inline std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class OpKind : std::uint8_t { kPut, kGet };

enum class OpStatus : std::uint8_t {
  kPending,
  kDone,
  kLost,     // its connection died before the reply; resent as a new op
  kTimeout,  // no reply within kOpTimeoutNs of being sent
};

enum class Phase : std::uint8_t { kWarmup, kFixed, kCapacity, kDrain };

inline constexpr std::int64_t kOpTimeoutNs = 10'000'000'000;

// The cluster's size and the workload's key space.
inline constexpr std::size_t kReplicas = 3;
inline constexpr std::size_t kKeys = 1000;

// A get that returned bytes which do not name a write of this run.
inline constexpr std::uint64_t kBadValue = ~std::uint64_t{0};

// One client operation. A put's value embeds its write id (op index + 1),
// so a get's reply names exactly which write it observed (0: key absent).
struct Op {
  std::int64_t due_ns = 0;  // when the schedule said to send it
  std::int64_t sent_ns = -1;
  std::int64_t done_ns = -1;
  std::uint64_t read_value = 0;  // kGet only: write id observed
  std::uint32_t client = 0;      // client slot; (client, seq) is the wire id
  std::uint32_t seq = 0;
  std::uint16_t key = 0;
  OpKind kind = OpKind::kPut;
  OpStatus status = OpStatus::kPending;
  Phase phase = Phase::kWarmup;
  std::uint8_t replica = 0;  // replica the op was sent to
  std::uint8_t replies = 0;
  bool resend = false;  // re-issue of a kLost op, timed from the original due
};

[[nodiscard]] inline std::uint64_t write_id(std::size_t op_index) {
  return op_index + 1;
}

struct History {
  std::vector<Op> ops;
  // Replies whose (client, seq) matches no request sent.
  std::uint64_t unmatched_replies = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

// The q-quantile of `v` by nearest rank; 0 when `v` is empty.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t i = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i),
                   v.end());
  return v[i];
}

}  // namespace crsm_bench
