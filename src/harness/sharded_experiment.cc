#include "harness/sharded_experiment.h"

#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "kv/kv_store.h"
#include "util/rng.h"

namespace crsm {

LatencyStats ShardedExperimentResult::aggregate_latency() const {
  LatencyStats all;
  for (const LatencyStats& s : per_shard_latency) all.merge(s);
  return all;
}

namespace {

// One closed-loop client, bound to a single replica group: submit, wait for
// the commit reply at the home replica of that group, think, repeat.
struct ClientState {
  ClientId id = 0;
  ShardId shard = 0;
  ReplicaId home = 0;
  std::uint64_t next_seq = 1;
  std::uint64_t awaiting_seq = 0;
  Tick sent_at = 0;
};

}  // namespace

ShardedExperimentResult run_sharded_experiment(
    const ShardedExperimentOptions& opt, const SimWorld::ProtocolFactory& factory) {
  const std::size_t n = opt.matrix.size();
  const std::size_t shards = opt.num_shards;

  ShardedClusterOptions copt;
  copt.num_shards = shards;
  copt.world.matrix = opt.matrix;
  copt.world.seed = opt.seed;
  copt.world.jitter_ms = opt.jitter_ms;
  copt.world.clock_skew_ms = opt.clock_skew_ms;
  copt.world.record_execution = false;  // commits arrive via the commit hook

  ShardedCluster cluster(copt, factory, [] { return std::make_unique<KvStore>(); });

  ShardedExperimentResult result;
  result.protocol = cluster.shard(0).protocol(0).name();
  result.num_shards = shards;
  result.measured_s = opt.duration_s;
  result.per_shard_latency.resize(shards);
  result.per_shard_commands.assign(shards, 0);

  // Partition the workload key space across groups using the cluster's
  // router, so each group's clients only touch keys that group owns.
  std::vector<std::vector<std::string>> keys_by_shard(shards);
  for (std::size_t k = 0; k < opt.workload.key_space; ++k) {
    std::string key = "key-" + std::to_string(k);
    keys_by_shard[cluster.router().shard_of_key(key)].push_back(std::move(key));
  }
  for (std::size_t s = 0; s < shards; ++s) {
    if (keys_by_shard[s].empty()) {
      throw std::runtime_error(
          "run_sharded_experiment: key_space too small, shard " +
          std::to_string(s) + " owns no keys");
    }
  }

  const Tick warmup_us = static_cast<Tick>(opt.warmup_s * 1e6);
  const Tick end_us = warmup_us + static_cast<Tick>(opt.duration_s * 1e6);

  std::unordered_map<ClientId, ClientState> clients;
  // Per-group client randomness, forked from the experiment seed so adding
  // a group never perturbs the streams of existing groups.
  std::vector<Rng> rngs;
  {
    Rng root(opt.seed ^ 0x5eed5eed5eed5eedULL);
    for (std::size_t s = 0; s < shards; ++s) rngs.push_back(root.fork());
  }

  auto issue = [&](ClientState& c) {
    const std::vector<std::string>& pool = keys_by_shard[c.shard];
    const std::string& key =
        pool[rngs[c.shard].uniform_int(0, pool.size() - 1)];
    Command cmd;
    cmd.client = c.id;
    cmd.seq = c.next_seq++;
    cmd.payload = KvRequest::sized_put(key, opt.workload.payload_bytes).encode();
    c.awaiting_seq = cmd.seq;
    c.sent_at = cluster.shard(c.shard).sim().now();
    const ShardId routed = cluster.submit(c.home, std::move(cmd));
    if (routed != c.shard) {
      throw std::logic_error("run_sharded_experiment: router disagreement");
    }
  };

  cluster.set_commit_hook([&](ShardId shard, ReplicaId replica, const Command& cmd,
                              Timestamp, bool local_origin) {
    if (!local_origin) return;
    auto it = clients.find(cmd.client);
    if (it == clients.end()) return;
    ClientState& c = it->second;
    if (shard != c.shard || replica != c.home || cmd.seq != c.awaiting_seq) return;
    c.awaiting_seq = 0;
    SimWorld& world = cluster.shard(shard);
    const Tick now = world.sim().now();
    if (now > warmup_us && now <= end_us) {
      result.per_shard_latency[shard].add(us_to_ms(now - c.sent_at));
      ++result.per_shard_commands[shard];
      ++result.total_commands;
    }
    if (now < end_us) {
      const double think = rngs[shard].uniform(opt.workload.think_min_ms,
                                               opt.workload.think_max_ms);
      ClientId id = c.id;
      world.sim().after(ms_to_us(think), [&clients, &issue, id] {
        auto cit = clients.find(id);
        if (cit != clients.end()) issue(cit->second);
      });
    }
  });

  cluster.start();

  // Per-group closed-loop populations with staggered start times.
  for (std::size_t s = 0; s < shards; ++s) {
    for (ReplicaId r = 0; r < n; ++r) {
      if (!opt.workload.is_active(r, n)) continue;
      for (std::size_t i = 0; i < opt.workload.clients_per_replica; ++i) {
        const ClientId id =
            make_sharded_client_id(static_cast<std::uint32_t>(s), r, i);
        clients.emplace(id, ClientState{.id = id,
                                        .shard = static_cast<ShardId>(s),
                                        .home = r});
        const Tick start = ms_to_us(
            rngs[s].uniform(0.0, std::max(opt.workload.think_max_ms, 1.0)));
        cluster.shard(s).sim().after(start, [&clients, &issue, id] {
          auto cit = clients.find(id);
          if (cit != clients.end()) issue(cit->second);
        });
      }
    }
  }

  cluster.run_until(end_us);
  return result;
}

}  // namespace crsm
