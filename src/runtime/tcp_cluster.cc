#include "runtime/tcp_cluster.h"

#include <unistd.h>

#include <stdexcept>
#include <string>
#include <utility>

namespace crsm {

TcpCluster::TcpCluster(std::size_t n, ProtocolFactory protocol_factory,
                       StateMachineFactory sm_factory, NodeConfig node,
                       Options opt)
    : protocol_factory_(std::move(protocol_factory)),
      sm_factory_(std::move(sm_factory)),
      router_(opt.groups) {
  const long ncpu = ::sysconf(_SC_NPROCESSORS_ONLN);
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = static_cast<ReplicaId>(i);
    NodeConfig base = node;
    base.id = r;
    base.transport.listen_host = "127.0.0.1";
    base.transport.listen_port = 0;  // ephemeral; resolved below
    base.obs.metrics_port = 0;  // per-node ephemeral; fixed ports would collide
    if (!base.storage.dir.empty()) {
      base.storage.dir += "/node-" + std::to_string(r);
    }
    base.pin_core =
        opt.pin_cores ? static_cast<int>(i % static_cast<std::size_t>(
                                                 ncpu > 0 ? ncpu : 1))
                      : -1;
    std::vector<NodeConfig> cfgs;
    for (ShardId g = 0; g < num_groups(); ++g) {
      cfgs.push_back(group_config(base, g, num_groups(), /*core_stride=*/n));
      if (opt.tweak) opt.tweak(g, cfgs.back());
    }
    nodes_.push_back(
        std::make_unique<MultiGroupNode>(cfgs, protocol_factory_, sm_factory_));
    for (ShardId g = 0; g < num_groups(); ++g) {
      cfgs[g].transport.listen_port = nodes_.back()->group(g).port();
    }
    configs_.push_back(std::move(cfgs));
  }
}

TcpCluster::~TcpCluster() { stop(); }

void TcpCluster::install_hooks(MultiGroupNode& node) const {
  for (std::size_t g = 0; g < node.num_groups(); ++g) {
    NodeRuntime& n = node.group(g);
    if (reply_hook_) {
      n.set_reply_hook([hook = reply_hook_, r = n.id()](const Command& cmd) {
        hook(r, cmd);
      });
    }
    if (commit_hook_) {
      n.set_commit_hook([hook = commit_hook_, r = n.id()](
                            const Command& cmd, Timestamp ts, bool local) {
        hook(r, cmd, ts, local);
      });
    }
    if (read_hook_) {
      n.set_read_hook([hook = read_hook_, r = n.id()](
                          const Command& cmd, std::string_view output) {
        hook(r, cmd, output);
      });
    }
  }
}

std::vector<std::vector<TcpPeer>> TcpCluster::peer_tables() const {
  std::vector<std::vector<TcpPeer>> tables(num_groups());
  for (ShardId g = 0; g < num_groups(); ++g) {
    for (ReplicaId r = 0; r < num_replicas(); ++r) {
      tables[g].push_back(TcpPeer{"127.0.0.1", port(r, g)});
    }
  }
  return tables;
}

std::vector<ShardEndpoint> TcpCluster::endpoints(ReplicaId r) const {
  std::vector<ShardEndpoint> out;
  for (ShardId g = 0; g < num_groups(); ++g) {
    out.push_back(ShardEndpoint{"127.0.0.1", port(r, g)});
  }
  return out;
}

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
  const auto peers = peer_tables();
  for (auto& node : nodes_) {
    if (node) node->start(peers);
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
  auto node = std::make_unique<MultiGroupNode>(configs_.at(r),
                                               protocol_factory_, sm_factory_);
  install_hooks(*node);
  if (started_) node->start(peer_tables());
  nodes_.at(r) = std::move(node);
}

NodeRuntime& TcpCluster::owner(ReplicaId r, const Command& cmd) {
  auto& node = nodes_.at(r);
  if (!node) throw std::runtime_error("TcpCluster: replica killed");
  return node->group(num_groups() == 1 ? 0 : router_.shard_of(cmd));
}

void TcpCluster::submit(ReplicaId r, Command cmd) {
  owner(r, cmd).submit(std::move(cmd));
}

void TcpCluster::submit_read(ReplicaId r, Command cmd) {
  owner(r, cmd).submit_read(std::move(cmd));
}

TransportStats TcpCluster::stats() const {
  TransportStats total;
  for (const auto& node : nodes_) {
    if (!node) continue;
    for (std::size_t g = 0; g < node->num_groups(); ++g) {
      const TransportStats s = node->group(g).transport_stats();
      total.messages_sent += s.messages_sent;
      total.messages_delivered += s.messages_delivered;
      total.bytes_sent += s.bytes_sent;
      total.encode_calls += s.encode_calls;
      total.wire_flushes += s.wire_flushes;
      total.frames_flushed += s.frames_flushed;
      total.wakes_sent += s.wakes_sent;
      total.wakes_received += s.wakes_received;
    }
  }
  return total;
}

NodeRuntime::BatchStats TcpCluster::batch_stats() const {
  NodeRuntime::BatchStats total;
  for (const auto& node : nodes_) {
    if (!node) continue;
    for (std::size_t g = 0; g < node->num_groups(); ++g) {
      const NodeRuntime::BatchStats s = node->group(g).batch_stats();
      total.cmds += s.cmds;
      total.submissions += s.submissions;
    }
  }
  return total;
}

}  // namespace crsm
