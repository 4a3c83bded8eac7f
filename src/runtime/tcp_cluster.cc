#include "runtime/tcp_cluster.h"

#include <unistd.h>

#include <stdexcept>
#include <utility>

namespace crsm {

std::unique_ptr<NodeRuntime> TcpCluster::make_node(ReplicaId id,
                                                   std::uint16_t port) const {
  NodeConfig cfg;
  cfg.id = id;
  cfg.transport.listen_host = "127.0.0.1";
  cfg.transport.listen_port = port;  // 0 = ephemeral; resolved before start()
  cfg.transport.max_coalesce_bytes = opt_.max_coalesce_bytes;
  cfg.transport.reconnect = opt_.reconnect;
  cfg.max_batch_cmds = opt_.max_batch_cmds;
  cfg.max_batch_bytes = opt_.max_batch_bytes;
  cfg.group = opt_.group;
  cfg.num_groups = opt_.num_groups;
  if (opt_.pin_core_base >= 0) {
    const long ncpu = ::sysconf(_SC_NPROCESSORS_ONLN);
    cfg.pin_core = (opt_.pin_core_base + static_cast<int>(id)) %
                   static_cast<int>(ncpu > 0 ? ncpu : 1);
  }
  cfg.obs = opt_.obs;
  cfg.obs.metrics_port = 0;  // per-node ephemeral; fixed ports would collide
  cfg.storage.checkpoint_every = opt_.checkpoint_every;
  if (!opt_.log_dir.empty()) {
    cfg.storage.dir = opt_.log_dir + "/node-" + std::to_string(id);
    cfg.storage.group_commit = opt_.group_commit;
    cfg.storage.test_fsync_delay_us = opt_.test_fsync_delay_us;
  }
  return std::make_unique<NodeRuntime>(cfg, protocol_factory_, sm_factory_);
}

void TcpCluster::install_hooks(NodeRuntime& node) const {
  if (reply_hook_) {
    node.set_reply_hook([hook = reply_hook_, r = node.id()](const Command& cmd) {
      hook(r, cmd);
    });
  }
  if (commit_hook_) {
    node.set_commit_hook([hook = commit_hook_, r = node.id()](
                             const Command& cmd, Timestamp ts, bool local) {
      hook(r, cmd, ts, local);
    });
  }
  if (read_hook_) {
    node.set_read_hook([hook = read_hook_, r = node.id()](
                           const Command& cmd, std::string_view output) {
      hook(r, cmd, output);
    });
  }
}

std::vector<TcpPeer> TcpCluster::peer_table() const {
  std::vector<TcpPeer> peers;
  peers.reserve(ports_.size());
  for (std::uint16_t p : ports_) peers.push_back(TcpPeer{"127.0.0.1", p});
  return peers;
}

TcpCluster::TcpCluster(std::size_t n, ProtocolFactory protocol_factory,
                       StateMachineFactory sm_factory, Options opt)
    : protocol_factory_(std::move(protocol_factory)),
      sm_factory_(std::move(sm_factory)),
      opt_(std::move(opt)) {
  for (std::size_t i = 0; i < n; ++i) {
    nodes_.push_back(make_node(static_cast<ReplicaId>(i), 0));
    // The kernel-assigned port is the node's address for the whole cluster
    // lifetime: a restarted node rebinds it (SO_REUSEADDR) so peers' redial
    // loops find the replacement at the same place.
    ports_.push_back(nodes_.back()->port());
  }
}

TcpCluster::~TcpCluster() { stop(); }

void TcpCluster::set_reply_hook(ReplyHook hook) {
  reply_hook_ = std::move(hook);
  for (auto& node : nodes_) {
    if (node) install_hooks(*node);
  }
}

void TcpCluster::set_commit_hook(CommitHook hook) {
  commit_hook_ = std::move(hook);
  for (auto& node : nodes_) {
    if (node) install_hooks(*node);
  }
}

void TcpCluster::set_read_hook(ReadHook hook) {
  read_hook_ = std::move(hook);
  for (auto& node : nodes_) {
    if (node) install_hooks(*node);
  }
}

void TcpCluster::start() {
  if (started_) return;
  started_ = true;
  // Every listener was bound in the constructor, so the full address table
  // is known before any node dials. A node killed before this start stays
  // down until restart(r).
  for (auto& node : nodes_) {
    if (node) node->start(peer_table());
  }
}

void TcpCluster::stop() {
  if (!started_) return;
  started_ = false;
  for (auto& node : nodes_) {
    if (node) node->stop();
  }
}

void TcpCluster::kill(ReplicaId r) {
  nodes_.at(r).reset();
}

void TcpCluster::restart(ReplicaId r) {
  if (nodes_.at(r)) return;
  auto node = make_node(r, ports_.at(r));
  install_hooks(*node);
  if (started_) node->start(peer_table());
  nodes_.at(r) = std::move(node);
}

void TcpCluster::submit(ReplicaId r, Command cmd) {
  auto& node = nodes_.at(r);
  if (!node) throw std::runtime_error("TcpCluster::submit: replica killed");
  node->submit(std::move(cmd));
}

void TcpCluster::submit_read(ReplicaId r, Command cmd) {
  auto& node = nodes_.at(r);
  if (!node) throw std::runtime_error("TcpCluster::submit_read: replica killed");
  node->submit_read(std::move(cmd));
}

TransportStats TcpCluster::stats() const {
  TransportStats total;
  for (const auto& node : nodes_) {
    if (!node) continue;
    const TransportStats s = node->transport_stats();
    total.messages_sent += s.messages_sent;
    total.messages_delivered += s.messages_delivered;
    total.bytes_sent += s.bytes_sent;
    total.encode_calls += s.encode_calls;
    total.wire_flushes += s.wire_flushes;
    total.frames_flushed += s.frames_flushed;
    total.wakes_sent += s.wakes_sent;
    total.wakes_received += s.wakes_received;
  }
  return total;
}

NodeRuntime::BatchStats TcpCluster::batch_stats() const {
  NodeRuntime::BatchStats total;
  for (const auto& node : nodes_) {
    if (!node) continue;
    const NodeRuntime::BatchStats s = node->batch_stats();
    total.cmds += s.cmds;
    total.submissions += s.submissions;
  }
  return total;
}

}  // namespace crsm
