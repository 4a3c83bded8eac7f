// Closed-loop saturating throughput measurement on a loopback TcpCluster
// (paper Figure 8 methodology): N NodeRuntimes in one process, every
// inter-replica message over a real TCP socket, replicas logging to memory
// unless TcpClusterOptions::log_dir makes them durable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/tcp_cluster.h"

namespace crsm {

struct ThroughputOptions {
  std::size_t num_replicas = 5;
  std::size_t clients_per_replica = 32;  // enough to saturate
  std::size_t payload_bytes = 100;
  double warmup_s = 0.5;
  double duration_s = 2.0;
  // Imbalanced option (clients at one replica only); -1 = all replicas.
  int only_replica = -1;
  // Fraction of each client's ops issued as local reads.
  double read_fraction = 0.0;
  // Enable commit-pipeline tracing on every node and fill
  // ThroughputResult::stages from the nodes' stage histograms. Sampled
  // (every 16th origin command), so the overhead it measures is also the
  // overhead it costs.
  bool stage_breakdown = false;
  // Protocol-level command batching on every node (see
  // NodeConfig::max_batch_cmds / max_batch_bytes). 1 = off.
  std::size_t max_batch_cmds = 1;
  std::size_t max_batch_bytes = 256 * 1024;
};

// One commit-pipeline stage over the whole run: count-weighted p50/p99
// across replicas (each replica traces its own origin commands).
struct StageLatency {
  std::string stage;  // queue, broadcast, wal, ack, stability, execute,
                      // reply, total, read_wait, read_total
  std::uint64_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

struct ThroughputResult {
  double kops_per_sec = 0.0;       // committed commands per second (origin view)
  double mb_per_sec_wire = 0.0;    // wire bytes moved per second
  std::uint64_t total_ops = 0;
  // Throughput implied by the busiest replica's CPU time: what an N-machine
  // cluster would sustain (ops / max-replica busy seconds). A replica's busy
  // time is its event loop's pass time minus the kernel wait
  // (crsm_loop_busy_us, obs/loop_profiler.h). On hosts with >= N cores this
  // converges to kops_per_sec; on smaller hosts it is the meaningful number
  // for comparing protocols whose load distribution differs (the Paxos
  // leader vs the symmetric multi-leader protocols).
  double kops_per_sec_bottleneck = 0.0;
  // Busiest replica's share of the cluster's total busy time (1/N =
  // perfectly even).
  double max_cpu_share = 0.0;
  // Wire-pipeline counters over the measurement window, normalized per
  // committed command. encodes_per_cmd < msgs_per_cmd shows fan-out
  // encode-once at work (a 5-replica broadcast encodes once, sends 5).
  double msgs_per_cmd = 0.0;
  double bytes_per_cmd = 0.0;
  double encodes_per_cmd = 0.0;
  // Wire coalescing at work: sendmsg calls per committed command
  // (flushes_per_cmd < msgs_per_cmd means frames shared a flush) and frames
  // carried per flush (the achieved batching factor).
  double flushes_per_cmd = 0.0;
  double frames_per_flush = 0.0;
  // Protocol batching at work: client write commands carried per protocol
  // submission (PREPARE round at the origin) over the measurement window.
  // 1.0 with batching off.
  double cmds_per_prepare = 1.0;
  // Committed reads per second (only with ThroughputOptions::read_fraction;
  // reads are excluded from the write-pipeline per-cmd counters above).
  double reads_per_sec = 0.0;
  // Commit-pipeline stage breakdown (ThroughputOptions::stage_breakdown).
  // Cumulative over warmup + measurement.
  std::vector<StageLatency> stages;
};

// Spawns closed-loop client threads (one outstanding request each) against
// a TcpCluster running the given protocol and measures committed ops/s over
// the measurement window. `copt` configures the cluster (durable WAL nodes
// via copt.log_dir: the group-commit cost measurement); its batching knobs
// are overridden by ThroughputOptions.
[[nodiscard]] ThroughputResult run_throughput(
    const ThroughputOptions& opt, const TcpCluster::ProtocolFactory& factory,
    const TcpClusterOptions& copt = {});

}  // namespace crsm
