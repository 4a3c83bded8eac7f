// Closed-loop client workload specification (Section VI-B).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace crsm {

// The paper's EC2 setup: 40 clients per data center issuing 64 B update
// commands in a closed loop with think time uniform in [0, 80] ms. Balanced
// workloads run clients at every replica; imbalanced workloads at one.
//
// In a sharded deployment (src/shard) these options describe the client
// population of ONE replica group: the sharded harness attaches an
// independent closed-loop population per group, each drawing keys only from
// its group's slice of the key space, so total offered load scales with the
// shard count.
struct WorkloadOptions {
  std::size_t clients_per_replica = 40;
  double think_min_ms = 0.0;
  double think_max_ms = 80.0;
  std::size_t payload_bytes = 64;
  std::size_t key_space = 1000;
  // Fraction of ops that are reads (kGet of a uniform-random key), issued
  // through the protocol's read path: Clock-RSM serves them locally once
  // its stability point passes the read timestamp, other protocols fall
  // back to riding the log. 0 is the paper's pure update workload.
  double read_fraction = 0.0;
  // Replicas with clients attached; empty means every replica (balanced).
  std::vector<ReplicaId> active_replicas;

  [[nodiscard]] bool is_active(ReplicaId r, std::size_t num_replicas) const {
    if (active_replicas.empty()) return r < num_replicas;
    for (ReplicaId a : active_replicas) {
      if (a == r) return true;
    }
    return false;
  }
};

// Packs (home replica, client index) into a globally unique non-zero id.
// Layout: bits 48..63 shard (0 for unsharded), 32..47 home replica,
// 0..31 index + 1. Each field is masked to its width so an out-of-range
// value wraps within its own field instead of corrupting its neighbors.
[[nodiscard]] constexpr ClientId make_client_id(ReplicaId home, std::size_t idx) {
  return (static_cast<ClientId>(home & 0xffff) << 32) | ((idx + 1) & 0xffffffff);
}
[[nodiscard]] constexpr ReplicaId client_home(ClientId id) {
  return static_cast<ReplicaId>((id >> 32) & 0xffff);
}

// Sharded variant: also encodes the replica group the client is bound to,
// so ids stay unique across every group of a sharded deployment.
[[nodiscard]] constexpr ClientId make_sharded_client_id(std::uint32_t shard,
                                                        ReplicaId home,
                                                        std::size_t idx) {
  return (static_cast<ClientId>(shard & 0xffff) << 48) | make_client_id(home, idx);
}
[[nodiscard]] constexpr std::uint32_t client_shard(ClientId id) {
  return static_cast<std::uint32_t>(id >> 48);
}

}  // namespace crsm
