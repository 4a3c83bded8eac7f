// Core identifier and timestamp types shared by every module.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace crsm {

// Identifies a replica. Replica ids are dense indices into the system
// specification (Spec) chosen by the administrator, stable for the lifetime
// of the system.
using ReplicaId = std::uint32_t;

// Reconfiguration epoch (Algorithm 3). Starts at 0 and increases by one per
// reconfiguration.
using Epoch = std::uint64_t;

// Consensus / Mencius / Paxos log position.
using Slot = std::uint64_t;

// Identifies a client process.
using ClientId = std::uint64_t;

// Physical clock reading in microseconds. Clock-RSM only assumes loose
// synchronization; ticks from different replicas are comparable but may be
// skewed.
using Tick = std::uint64_t;

inline constexpr ReplicaId kNoReplica = std::numeric_limits<ReplicaId>::max();

// A Clock-RSM command timestamp: the originating replica's physical clock
// reading, with the replica id breaking ties so that timestamps form a total
// order (Section III-B, step 1).
struct Timestamp {
  Tick ticks = 0;
  ReplicaId origin = kNoReplica;

  friend auto operator<=>(const Timestamp&, const Timestamp&) = default;

  [[nodiscard]] bool is_zero() const { return ticks == 0; }
  [[nodiscard]] std::string to_string() const {
    return std::to_string(ticks) + "." + std::to_string(origin);
  }
};

inline constexpr Timestamp kZeroTimestamp{0, 0};

// Hash for unordered containers keyed by Timestamp.
struct TimestampHash {
  std::size_t operator()(const Timestamp& ts) const {
    return std::hash<Tick>()(ts.ticks) * 1000003u ^ std::hash<ReplicaId>()(ts.origin);
  }
};

// Size of a majority quorum of `n` processes.
[[nodiscard]] constexpr std::size_t majority(std::size_t n) { return n / 2 + 1; }

// Milliseconds/microseconds helpers; all protocol code works in microseconds.
[[nodiscard]] constexpr Tick ms_to_us(double ms) {
  return static_cast<Tick>(ms * 1000.0);
}
[[nodiscard]] constexpr double us_to_ms(Tick us) {
  return static_cast<double>(us) / 1000.0;
}

}  // namespace crsm
