// Runs a simulated geo-replication latency experiment end to end.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/sim_world.h"
#include "util/stats.h"
#include "util/topology.h"
#include "workload/workload.h"

namespace crsm {

struct ClockRsmOptions;  // clockrsm/clock_rsm.h

struct LatencyExperimentOptions {
  LatencyMatrix matrix;
  WorkloadOptions workload;
  std::uint64_t seed = 1;
  double warmup_s = 2.0;      // simulated seconds discarded
  double duration_s = 30.0;   // simulated seconds measured
  double clock_skew_ms = 2.0; // NTP-like skew, uniform per replica
  double jitter_ms = 0.0;     // network jitter
};

struct LatencyExperimentResult {
  std::string protocol;
  // Commit latency of commands originated at each replica, measured at the
  // originating replica (client-observed minus local RTT, which the paper
  // treats as negligible: ~0.6 ms inside a data center).
  std::vector<LatencyStats> per_replica;
  std::uint64_t total_commands = 0;
  std::uint64_t messages_sent = 0;
  // Read-op latency per home replica, when workload.read_fraction > 0.
  // Clock-RSM serves these from the local stability point; protocols
  // without a local read path answer them through the log, so their read
  // latency matches commit latency.
  std::vector<LatencyStats> read_per_replica;
  std::uint64_t total_reads = 0;

  [[nodiscard]] LatencyStats aggregate() const;
  [[nodiscard]] LatencyStats aggregate_reads() const;
};

// Builds a SimWorld with the given protocol factory, attaches closed-loop
// KV clients per the workload, runs warmup + duration of simulated time and
// returns per-replica commit latency statistics.
[[nodiscard]] LatencyExperimentResult run_latency_experiment(
    const LatencyExperimentOptions& opt, const SimWorld::ProtocolFactory& factory);

// Convenience protocol factories for the four protocols under study.
[[nodiscard]] SimWorld::ProtocolFactory clock_rsm_factory(std::size_t n,
                                                          bool clocktime_enabled = true,
                                                          Tick delta_us = 5'000);
// Full-options variant.
[[nodiscard]] SimWorld::ProtocolFactory clock_rsm_factory(
    std::size_t n, const ClockRsmOptions& opt);
// clock_rsm_factory(n, {}) would silently pick the bool overload above
// ({} -> false disables CLOCKTIME, starving stability between writes);
// this deleted overload makes the empty braced list ambiguous instead,
// so callers must spell clock_rsm_factory(n, ClockRsmOptions{}).
SimWorld::ProtocolFactory clock_rsm_factory(std::size_t n,
                                            std::nullptr_t) = delete;
[[nodiscard]] SimWorld::ProtocolFactory paxos_factory(std::size_t n, ReplicaId leader,
                                                      bool broadcast);
[[nodiscard]] SimWorld::ProtocolFactory mencius_factory(std::size_t n);

}  // namespace crsm
