// MultiGroupNode: one process hosting one replica of N independent replica
// groups — the production shape of the sharded deployment.
//
// Each group is a full NodeRuntime: its own event-loop thread (optionally
// affinity-pinned to its own core), TcpTransport, WAL/group-commit pipeline
// under <dir>/group-<g>, and metrics registry labeled group="g". Group g of
// the process listens on base port + g (the port-stride convention every
// process of the cluster follows), so one `--peers` table of base addresses
// describes the whole groups x replicas topology. crsm_node wraps this
// class; ShardedTcpCluster is its loopback test-harness analogue.
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

struct MultiGroupOptions {
  std::size_t groups = 1;
  // Pin group g's loop thread to core g (mod the online core count).
  bool pin_cores = false;
};

class MultiGroupNode {
 public:
  using ProtocolFactory = NodeRuntime::ProtocolFactory;
  using StateMachineFactory = NodeRuntime::StateMachineFactory;

  // `base` carries the per-process knobs (replica id, listen address and
  // base port, storage base dir, batching, obs with base metrics port);
  // the per-group configs are derived: port/metrics port striped by +g,
  // storage under <dir>/group-<g>, group/num_groups set.
  // With groups == 1 the base config is used untouched (no /group-0 nesting,
  // no label) — a 1-group MultiGroupNode is exactly a NodeRuntime.
  MultiGroupNode(const NodeConfig& base, MultiGroupOptions opt,
                 const ProtocolFactory& protocol_factory,
                 const StateMachineFactory& sm_factory);

  MultiGroupNode(const MultiGroupNode&) = delete;
  MultiGroupNode& operator=(const MultiGroupNode&) = delete;

  // base_peers[p] is process p's base address; group g of every process is
  // dialed at base port + g.
  void start(const std::vector<TcpPeer>& base_peers);
  void stop();

  [[nodiscard]] std::size_t num_groups() const { return groups_.size(); }
  [[nodiscard]] NodeRuntime& group(std::size_t g) { return *groups_.at(g); }

  // Sum over groups — the process-wide commit counter the stats line rates.
  [[nodiscard]] std::uint64_t executed() const;
  [[nodiscard]] std::uint64_t reads_served() const;
  // True when any group found prior durable state on boot.
  [[nodiscard]] bool recovering() const;

 private:
  std::vector<std::unique_ptr<NodeRuntime>> groups_;
};

}  // namespace crsm
