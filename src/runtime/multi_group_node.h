// MultiGroupNode: one process hosting one replica of N independent replica
// groups — the production shape of the sharded deployment.
//
// Each group is a full NodeRuntime: its own event-loop thread (optionally
// affinity-pinned to its own core), TcpTransport, WAL/group-commit pipeline
// under <dir>/group-<g>, and metrics registry labeled group="g".
// group_config() below is the one place that derives group g's config from
// the process's base config, and group_peers() the one place that derives
// its peer table: group g of every process listens on base port + g, so one
// `--peers` table of base addresses describes the whole groups x replicas
// topology. crsm_node wraps this class, and TcpCluster runs one per replica
// on loopback.
//
// Protocol CPU was the single-core ceiling (~34k durable cmds/s at batch
// 64, ROADMAP); with one loop thread per group, every group brings its own
// commit pipeline — the per-core unit of scale the paper's throughput story
// assumes when it shards the key space across groups.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/node.h"

namespace crsm {

// Group g's config in a process hosting `groups` groups, derived from the
// process's `base`: group/num_groups set, storage under <dir>/group-<g>,
// listen and metrics ports strided by +g (a base port of 0 stays 0, i.e.
// ephemeral), and a pinned base (pin_core >= 0) pins group g to core
// pin_core + g * core_stride (mod the online core count). With groups == 1
// the base comes back untouched: no /group-0 nesting, no label.
[[nodiscard]] NodeConfig group_config(const NodeConfig& base, ShardId g,
                                      std::size_t groups,
                                      std::size_t core_stride = 1);

// Group g's peer table: base_peers[p] is process p's base address, and
// group g of every process is dialed at its base port + g (untouched with
// groups == 1).
[[nodiscard]] std::vector<TcpPeer> group_peers(
    const std::vector<TcpPeer>& base_peers, ShardId g, std::size_t groups);

class MultiGroupNode {
 public:
  using ProtocolFactory = NodeRuntime::ProtocolFactory;
  using StateMachineFactory = NodeRuntime::StateMachineFactory;

  // configs[g] is group g's config (group_config). Binds every group's
  // listener; starts nothing.
  MultiGroupNode(const std::vector<NodeConfig>& configs,
                 const ProtocolFactory& protocol_factory,
                 const StateMachineFactory& sm_factory);

  MultiGroupNode(const MultiGroupNode&) = delete;
  MultiGroupNode& operator=(const MultiGroupNode&) = delete;

  // peers[g] is group g's peer table (group_peers).
  void start(const std::vector<std::vector<TcpPeer>>& peers);
  void stop();

  [[nodiscard]] std::size_t num_groups() const { return groups_.size(); }
  [[nodiscard]] NodeRuntime& group(std::size_t g) { return *groups_.at(g); }

 private:
  std::vector<std::unique_ptr<NodeRuntime>> groups_;
};

}  // namespace crsm
