#include "harness/latency_experiment.h"

#include <memory>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "clockrsm/clock_rsm.h"
#include "kv/kv_store.h"
#include "mencius/mencius.h"
#include "paxos/multi_paxos.h"
#include "util/rng.h"

namespace crsm {

LatencyStats LatencyExperimentResult::aggregate() const {
  LatencyStats all;
  for (const LatencyStats& s : per_replica) all.merge(s);
  return all;
}

LatencyStats LatencyExperimentResult::aggregate_reads() const {
  LatencyStats all;
  for (const LatencyStats& s : read_per_replica) all.merge(s);
  return all;
}

namespace {

// One closed-loop client: submit, wait for the reply at the home replica
// (commit for writes, read service for reads), think, repeat.
struct ClientState {
  ClientId id = 0;
  ReplicaId home = 0;
  std::uint64_t next_seq = 1;
  std::uint64_t awaiting_seq = 0;
  bool awaiting_read = false;
  Tick sent_at = 0;
};

}  // namespace

LatencyExperimentResult run_latency_experiment(
    const LatencyExperimentOptions& opt, const SimWorld::ProtocolFactory& factory) {
  const std::size_t n = opt.matrix.size();

  SimWorldOptions wopt;
  wopt.matrix = opt.matrix;
  wopt.seed = opt.seed;
  wopt.jitter_ms = opt.jitter_ms;
  wopt.clock_skew_ms = opt.clock_skew_ms;
  // Commits are observed through the commit hook below; the per-replica
  // execution trace would only grow with the run.
  wopt.record_execution = false;

  SimWorld world(wopt, factory, [] { return std::make_unique<KvStore>(); });

  LatencyExperimentResult result;
  result.protocol = world.protocol(0).name();
  result.per_replica.resize(n);
  result.read_per_replica.resize(n);

  const Tick warmup_us = static_cast<Tick>(opt.warmup_s * 1e6);
  const Tick end_us = warmup_us + static_cast<Tick>(opt.duration_s * 1e6);

  std::unordered_map<ClientId, ClientState> clients;
  Rng rng = world.rng().fork();

  auto issue = [&world, &rng, &opt](ClientState& c) {
    const std::string key =
        "key-" + std::to_string(rng.uniform_int(0, opt.workload.key_space - 1));
    Command cmd;
    cmd.client = c.id;
    cmd.seq = c.next_seq++;
    c.awaiting_seq = cmd.seq;
    c.sent_at = world.sim().now();
    if (opt.workload.read_fraction > 0.0 &&
        rng.bernoulli(opt.workload.read_fraction)) {
      KvRequest r;
      r.op = KvOp::kGet;
      r.key = key;
      cmd.payload = r.encode();
      c.awaiting_read = true;
      world.submit_read(c.home, std::move(cmd));
      return;
    }
    cmd.payload = KvRequest::sized_put(key, opt.workload.payload_bytes).encode();
    c.awaiting_read = false;
    world.submit(c.home, std::move(cmd));
  };

  // Shared completion path: record the op's latency and schedule the next
  // request after think time.
  auto complete = [&](ClientState& c, bool read) {
    c.awaiting_seq = 0;
    c.awaiting_read = false;
    const Tick now = world.sim().now();
    if (now > warmup_us && now <= end_us) {
      auto& stats = read ? result.read_per_replica : result.per_replica;
      stats[c.home].add(us_to_ms(now - c.sent_at));
      ++(read ? result.total_reads : result.total_commands);
    }
    if (now < end_us) {
      const double think =
          rng.uniform(opt.workload.think_min_ms, opt.workload.think_max_ms);
      const Tick delay = ms_to_us(think);
      ClientId id = c.id;
      world.sim().after(delay, [&clients, &issue, id] {
        auto cit = clients.find(id);
        if (cit != clients.end()) issue(cit->second);
      });
    }
  };

  // Reply handling: when the home replica executes a client's outstanding
  // command, record the commit latency and schedule the next request. A
  // read that rode the log (protocol without local reads) also lands here.
  world.set_commit_hook([&](ReplicaId replica, const Command& cmd, Timestamp,
                            bool local_origin) {
    if (!local_origin) return;
    auto it = clients.find(cmd.client);
    if (it == clients.end()) return;
    ClientState& c = it->second;
    if (replica != c.home || cmd.seq != c.awaiting_seq) return;
    complete(c, c.awaiting_read);
  });

  // Locally served reads (Clock-RSM's stability-based read path).
  world.set_read_hook(
      [&](ReplicaId replica, const Command& cmd, Timestamp, std::string_view) {
        auto it = clients.find(cmd.client);
        if (it == clients.end()) return;
        ClientState& c = it->second;
        if (replica != c.home || cmd.seq != c.awaiting_seq || !c.awaiting_read) {
          return;
        }
        complete(c, true);
      });

  world.start();

  // Create clients with staggered start times to avoid synchronized bursts.
  for (ReplicaId r = 0; r < n; ++r) {
    if (!opt.workload.is_active(r, n)) continue;
    for (std::size_t i = 0; i < opt.workload.clients_per_replica; ++i) {
      const ClientId id = make_client_id(r, i);
      clients.emplace(id, ClientState{.id = id, .home = r});
      const Tick start = ms_to_us(
          rng.uniform(0.0, std::max(opt.workload.think_max_ms, 1.0)));
      world.sim().after(start, [&clients, &issue, id] {
        auto cit = clients.find(id);
        if (cit != clients.end()) issue(cit->second);
      });
    }
  }

  world.sim().run_until(end_us);
  result.messages_sent = world.network().messages_sent();
  return result;
}

SimWorld::ProtocolFactory clock_rsm_factory(std::size_t n, bool clocktime_enabled,
                                            Tick delta_us) {
  ClockRsmOptions o;
  o.clocktime_enabled = clocktime_enabled;
  o.clocktime_delta_us = delta_us;
  return clock_rsm_factory(n, o);
}

SimWorld::ProtocolFactory clock_rsm_factory(std::size_t n,
                                            const ClockRsmOptions& opt) {
  std::vector<ReplicaId> spec(n);
  for (std::size_t i = 0; i < n; ++i) spec[i] = static_cast<ReplicaId>(i);
  return [spec, opt](ProtocolEnv& env, ReplicaId) {
    return std::make_unique<ClockRsmReplica>(env, spec, opt);
  };
}

SimWorld::ProtocolFactory paxos_factory(std::size_t n, ReplicaId leader,
                                        bool broadcast) {
  std::vector<ReplicaId> replicas(n);
  for (std::size_t i = 0; i < n; ++i) replicas[i] = static_cast<ReplicaId>(i);
  const PaxosMode mode = broadcast ? PaxosMode::kBroadcast : PaxosMode::kClassic;
  return [replicas, leader, mode](ProtocolEnv& env, ReplicaId) {
    return std::make_unique<PaxosReplica>(env, replicas, leader, mode);
  };
}

SimWorld::ProtocolFactory mencius_factory(std::size_t n) {
  std::vector<ReplicaId> replicas(n);
  for (std::size_t i = 0; i < n; ++i) replicas[i] = static_cast<ReplicaId>(i);
  return [replicas](ProtocolEnv& env, ReplicaId) {
    return std::make_unique<MenciusReplica>(env, replicas);
  };
}

}  // namespace crsm
