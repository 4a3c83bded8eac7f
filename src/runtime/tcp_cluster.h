// In-process groups x replicas TCP cluster on loopback: the test/bench
// harness for the real-socket runtime.
//
// Replica r is one MultiGroupNode — exactly what `crsm_node --groups G`
// runs — hosting replica r of every group, each group a NodeRuntime with
// its own event-loop thread listening on an ephemeral 127.0.0.1 port. The
// nodes are wired into one full mesh per group and exposed through a
// thread-safe submit/reply surface for the closed-loop throughput driver
// (runtime/throughput.h) and the agreement tests. Every inter-replica
// message genuinely crosses the kernel: encoded once, writev'd per link,
// reassembled and decoded zero-copy at the receiver.
//
// Every node is configured from one NodeConfig template. The cluster owns
// the per-replica fields (id, listen address, metrics port: ephemeral) and
// puts a durable replica's state under <storage.dir>/node-<r>; group g's
// config then comes from group_config (runtime/multi_group_node.h), as in
// crsm_node, so a multi-group replica logs under <storage.dir>/node-<r>/
// group-<g>. With groups > 1 submits route by key through a ShardRouter
// built with the same group count the nodes were given.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/command.h"
#include "common/types.h"
#include "runtime/multi_group_node.h"
#include "runtime/node.h"
#include "shard/shard_router.h"
#include "shard/sharded_client.h"

namespace crsm {

struct TcpClusterOptions {
  // Replica groups hosted by every replica's MultiGroupNode.
  std::size_t groups = 1;
  // Pin node (g, r) to core g * replicas + r (mod the online core count):
  // each group's pipeline owns distinct cores when the host has them.
  bool pin_cores = false;
  // Per-group config overrides, applied after the derivation above — the
  // seam for asymmetric fault injection (e.g. stall only group 0's fsyncs).
  std::function<void(ShardId, NodeConfig&)> tweak;
};

class TcpCluster {
 public:
  using ProtocolFactory = NodeRuntime::ProtocolFactory;
  using StateMachineFactory = NodeRuntime::StateMachineFactory;
  // Hooks fire for every group; a hook that needs the group reads it from
  // the command (client_shard of a make_sharded_client_id id).
  using ReplyHook = std::function<void(ReplicaId, const Command&)>;
  using CommitHook =
      std::function<void(ReplicaId, const Command&, Timestamp, bool)>;
  using ReadHook =
      std::function<void(ReplicaId, const Command&, std::string_view)>;
  using Options = TcpClusterOptions;

  // Binds every node's listeners (ephemeral ports) but starts nothing. The
  // factory pair is shared by every group (build it for `n` replicas).
  TcpCluster(std::size_t n, ProtocolFactory protocol_factory,
             StateMachineFactory sm_factory, NodeConfig node = {},
             Options opt = {});
  ~TcpCluster();

  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  // Hooks run on the owning node's loop thread; install before start().
  void set_reply_hook(ReplyHook hook);
  void set_commit_hook(CommitHook hook);
  void set_read_hook(ReadHook hook);

  // Starts all nodes. Links come up asynchronously; messages sent before a
  // link finishes connecting queue at the transport and flush on connect.
  void start();
  void stop();

  // Hard-kills replica r — replica r of every group at once, the process a
  // real kill -9 takes down: destroys its runtimes with no protocol-level
  // goodbye. A durable node keeps exactly what reached its WAL/checkpoint;
  // peers see the connections die and redial with backoff. Call from the
  // thread that owns start()/stop(), and only while no submit(r)/
  // executed(r)/node(r) call for THIS replica can be in flight on another
  // thread (kill/restart swap the node pointer unsynchronized; accessors to
  // other replicas are unaffected). While r is dead, submit(r) throws and
  // executed(r) reads 0 — check alive(r).
  void kill(ReplicaId r);
  // Recreates replica r from its log directories, rebinds the same ports
  // and starts it; each group replays its WAL and (Clock-RSM) fetches what
  // it missed from live peers.
  void restart(ReplicaId r);
  [[nodiscard]] bool alive(ReplicaId r) const { return nodes_.at(r) != nullptr; }

  [[nodiscard]] std::size_t num_replicas() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_groups() const { return router_.num_shards(); }
  [[nodiscard]] const ShardRouter& router() const { return router_; }
  [[nodiscard]] NodeRuntime& node(ReplicaId r, ShardId g = 0) {
    return nodes_.at(r)->group(g);
  }
  [[nodiscard]] std::uint16_t port(ReplicaId r, ShardId g = 0) const {
    return configs_.at(r).at(g).transport.listen_port;
  }
  // Client-facing endpoints of replica r across groups, in ShardId order —
  // exactly the vector ShardedSyncClient wants.
  [[nodiscard]] std::vector<ShardEndpoint> endpoints(ReplicaId r) const;

  // Thread-safe: submits a client command at replica r (of the group that
  // owns its key).
  void submit(ReplicaId r, Command cmd);
  // Thread-safe: submits a read-only command at replica r (answered via the
  // read hook; served locally when the protocol supports it).
  void submit_read(ReplicaId r, Command cmd);

  [[nodiscard]] std::uint64_t executed(ReplicaId r, ShardId g = 0) const {
    const auto& node = nodes_.at(r);
    return node ? node->group(g).executed() : 0;
  }
  [[nodiscard]] std::uint64_t reads_served(ReplicaId r, ShardId g = 0) const {
    const auto& node = nodes_.at(r);
    return node ? node->group(g).reads_served() : 0;
  }

  // Aggregate wire counters across every live node's transport.
  [[nodiscard]] TransportStats stats() const;

  // Aggregate batching counters across every live node (cmds accepted /
  // protocol submissions; their ratio is the achieved cmds-per-PREPARE).
  [[nodiscard]] NodeRuntime::BatchStats batch_stats() const;

 private:
  void install_hooks(MultiGroupNode& node) const;
  [[nodiscard]] std::vector<std::vector<TcpPeer>> peer_tables() const;
  [[nodiscard]] NodeRuntime& owner(ReplicaId r, const Command& cmd);

  ProtocolFactory protocol_factory_;
  StateMachineFactory sm_factory_;
  ShardRouter router_;
  // configs_[r][g]: node (g, r)'s config, its listen port resolved at the
  // first bind so a restarted node rebinds it (SO_REUSEADDR) and peers'
  // redial loops find the replacement at the same place.
  std::vector<std::vector<NodeConfig>> configs_;
  std::vector<std::unique_ptr<MultiGroupNode>> nodes_;
  ReplyHook reply_hook_;
  CommitHook commit_hook_;
  ReadHook read_hook_;
  bool started_ = false;
};

}  // namespace crsm
