// In-process N-node TCP cluster on loopback: the test/bench harness for
// the real-socket runtime.
//
// Boots N NodeRuntimes — each with its own event-loop thread, listening on
// an ephemeral 127.0.0.1 port — wires them into a full mesh and exposes a
// thread-safe submit/reply surface for the closed-loop throughput driver
// (runtime/throughput.h) and the agreement tests. Every
// inter-replica message genuinely crosses the kernel: encoded once,
// writev'd per link, reassembled and decoded zero-copy at the receiver.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/command.h"
#include "common/types.h"
#include "net/event_loop.h"
#include "runtime/node.h"

namespace crsm {

struct TcpClusterOptions {
  // Applied to every node (listen host/port are managed by the cluster).
  // Durable nodes: replica i logs to <log_dir>/node-<i> (WAL + checkpoint).
  // Empty = volatile MemLog. With a log dir set, kill()/restart() give the
  // crash-restart story its in-process harness.
  std::string log_dir;
  bool group_commit = true;
  // Applied to durable and volatile nodes alike (see StorageOptions).
  std::uint64_t checkpoint_every = StorageOptions{}.checkpoint_every;
  // Per-pass wire coalescing budget per connection; 0 flushes every frame
  // as it is queued. See TcpTransportOptions.
  std::size_t max_coalesce_bytes = 256 * 1024;
  // Peer-link redial backoff for every node (see TcpTransportOptions).
  net::ConnectorOptions reconnect;
  // Protocol-level command batching, applied to every node (see
  // NodeConfig::max_batch_cmds / max_batch_bytes). 1 = batching off.
  std::size_t max_batch_cmds = 1;
  std::size_t max_batch_bytes = 256 * 1024;
  // Sharded topologies (ShardedTcpCluster): every node of this cluster
  // serves replica group `group` of `num_groups` (wrong-key rejection +
  // group-labeled metrics, see NodeConfig). Defaults = unsharded.
  ShardId group = 0;
  std::size_t num_groups = 1;
  // >= 0: pin replica r's loop thread to core pin_core_base + r (mod the
  // online core count). -1 = unpinned.
  int pin_core_base = -1;
  // Fault injection: per-fsync sleep applied to every node's WAL (see
  // StorageOptions::test_fsync_delay_us). Isolation tests stall one group.
  std::uint64_t test_fsync_delay_us = 0;
  // Observability knobs applied to every node (metrics_port stays 0:
  // ephemeral per node, readable via node(r).metrics_port()).
  NodeObsOptions obs;
};

class TcpCluster {
 public:
  using ProtocolFactory = NodeRuntime::ProtocolFactory;
  using StateMachineFactory = NodeRuntime::StateMachineFactory;
  using ReplyHook = std::function<void(ReplicaId, const Command&)>;
  using CommitHook =
      std::function<void(ReplicaId, const Command&, Timestamp, bool)>;
  using ReadHook =
      std::function<void(ReplicaId, const Command&, std::string_view)>;
  using Options = TcpClusterOptions;

  // Binds every node's listener (ephemeral ports) but starts nothing.
  TcpCluster(std::size_t n, ProtocolFactory protocol_factory,
             StateMachineFactory sm_factory, Options opt = {});
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

  // Hard-kills replica r: destroys its runtime with no protocol-level
  // goodbye — the in-process stand-in for `kill -9`. A durable node keeps
  // exactly what reached its WAL/checkpoint; peers see the connections die
  // and redial with backoff. Call from the thread that owns start()/stop(),
  // and only while no submit(r)/executed(r)/node(r) call for THIS replica
  // can be in flight on another thread (kill/restart swap the node pointer
  // unsynchronized; accessors to other replicas are unaffected). While r is
  // dead, submit(r) throws and executed(r) reads 0 — check alive(r).
  void kill(ReplicaId r);
  // Recreates replica r from its log directory, rebinds the same port and
  // starts it; the node replays its WAL and (Clock-RSM with catch-up
  // enabled) fetches what it missed from live peers.
  void restart(ReplicaId r);
  [[nodiscard]] bool alive(ReplicaId r) const { return nodes_.at(r) != nullptr; }

  [[nodiscard]] std::size_t num_replicas() const { return nodes_.size(); }
  [[nodiscard]] NodeRuntime& node(ReplicaId r) { return *nodes_.at(r); }
  [[nodiscard]] std::uint16_t port(ReplicaId r) const { return ports_.at(r); }

  // Thread-safe: submits a client command at replica r.
  void submit(ReplicaId r, Command cmd);
  // Thread-safe: submits a read-only command at replica r (answered via the
  // read hook; served locally when the protocol supports it).
  void submit_read(ReplicaId r, Command cmd);

  [[nodiscard]] std::uint64_t executed(ReplicaId r) const {
    const auto& node = nodes_.at(r);
    return node ? node->executed() : 0;
  }
  [[nodiscard]] std::uint64_t reads_served(ReplicaId r) const {
    const auto& node = nodes_.at(r);
    return node ? node->reads_served() : 0;
  }

  // Aggregate wire counters across every node's transport.
  [[nodiscard]] TransportStats stats() const;

  // Aggregate batching counters across every live node (cmds accepted /
  // protocol submissions; their ratio is the achieved cmds-per-PREPARE).
  [[nodiscard]] NodeRuntime::BatchStats batch_stats() const;

 private:
  [[nodiscard]] std::unique_ptr<NodeRuntime> make_node(ReplicaId id,
                                                       std::uint16_t port) const;
  void install_hooks(NodeRuntime& node) const;
  [[nodiscard]] std::vector<TcpPeer> peer_table() const;

  ProtocolFactory protocol_factory_;
  StateMachineFactory sm_factory_;
  Options opt_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  std::vector<std::uint16_t> ports_;  // stable across kill/restart
  ReplyHook reply_hook_;
  CommitHook commit_hook_;
  ReadHook read_hook_;
  bool started_ = false;
};

}  // namespace crsm
