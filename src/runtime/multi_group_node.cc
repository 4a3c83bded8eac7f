#include "runtime/multi_group_node.h"

#include <unistd.h>

#include <string>

namespace crsm {

NodeConfig group_config(const NodeConfig& base, ShardId g, std::size_t groups,
                        std::size_t core_stride) {
  if (groups <= 1) return base;
  NodeConfig cfg = base;
  cfg.group = g;
  cfg.num_groups = groups;
  if (base.transport.listen_port != 0) {
    cfg.transport.listen_port =
        static_cast<std::uint16_t>(base.transport.listen_port + g);
  }
  if (base.obs.metrics_http && base.obs.metrics_port != 0) {
    cfg.obs.metrics_port = static_cast<std::uint16_t>(base.obs.metrics_port + g);
  }
  if (!base.storage.dir.empty()) {
    cfg.storage.dir += "/group-" + std::to_string(g);
  }
  if (base.pin_core >= 0) {
    const long ncpu = ::sysconf(_SC_NPROCESSORS_ONLN);
    cfg.pin_core = static_cast<int>(
        (static_cast<std::size_t>(base.pin_core) + g * core_stride) %
        static_cast<std::size_t>(ncpu > 0 ? ncpu : 1));
  }
  return cfg;
}

std::vector<TcpPeer> group_peers(const std::vector<TcpPeer>& base_peers,
                                 ShardId g, std::size_t groups) {
  std::vector<TcpPeer> peers = base_peers;
  if (groups > 1) {
    for (TcpPeer& p : peers) p.port = static_cast<std::uint16_t>(p.port + g);
  }
  return peers;
}

MultiGroupNode::MultiGroupNode(const std::vector<NodeConfig>& configs,
                               const ProtocolFactory& protocol_factory,
                               const StateMachineFactory& sm_factory) {
  groups_.reserve(configs.size());
  for (const NodeConfig& cfg : configs) {
    groups_.push_back(
        std::make_unique<NodeRuntime>(cfg, protocol_factory, sm_factory));
  }
}

void MultiGroupNode::start(const std::vector<std::vector<TcpPeer>>& peers) {
  for (std::size_t g = 0; g < groups_.size(); ++g) groups_[g]->start(peers.at(g));
}

void MultiGroupNode::stop() {
  for (auto& node : groups_) node->stop();
}

}  // namespace crsm
