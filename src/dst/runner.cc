#include "dst/runner.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "clockrsm/clock_rsm.h"
#include "consensus/single_decree_paxos.h"
#include "harness/latency_experiment.h"
#include "kv/kv_store.h"
#include "rsm/history.h"
#include "sim/sim_world.h"
#include "util/topology.h"
#include "workload/workload.h"

namespace crsm::dst {

namespace {

// Drives the single-decree synod (reconfiguration's PROPOSE/DECIDE
// primitive) as a standalone "protocol": submit() proposes the command's
// payload as the consensus value; the decision is delivered exactly once
// with a fixed timestamp, so the generic trace invariants reduce to "every
// replica that decided, decided the same value". Crash faults are not
// generated for this mode: the synod keeps acceptor state in memory only
// (matching its use inside reconfiguration), so acceptor amnesia is out of
// model — partitions, delays, duplicates and dueling proposers are the
// interesting schedule here.
class ConsensusAdapter final : public ReplicaProtocol {
 public:
  ConsensusAdapter(ProtocolEnv& env, std::vector<ReplicaId> participants)
      : env_(env),
        paxos_(env, std::move(participants), /*instance=*/0,
               [this](const std::string& value) { on_decide(value); },
               /*retry_us=*/400'000) {}

  void submit(Command cmd) override { paxos_.propose(cmd.payload.str()); }

  void on_message(const Message& m) override {
    if (m.epoch != 0) return;
    paxos_.on_message(m);
  }

  [[nodiscard]] std::string name() const override { return "consensus"; }

 private:
  void on_decide(const std::string& value) {
    Command c;
    c.client = 1;
    c.seq = 1;
    c.payload = value;
    env_.deliver(c, Timestamp{1, 0}, /*local_origin=*/false);
  }

  ProtocolEnv& env_;
  SingleDecreePaxos paxos_;
};

SimWorld::ProtocolFactory make_factory(const ScenarioSpec& spec) {
  const std::size_t n = spec.replicas;
  switch (spec.protocol) {
    case Protocol::kClockRsm: {
      // Without reconfiguration a restarted replica catches up: plain log
      // replay is not enough, since commands committed while it was down
      // would leave a permanent hole it later commits around (the stability
      // vector jumps past the gap once heartbeats resume — found by the
      // first swarm runs).
      ClockRsmOptions o;
      if (spec.reconfig) {
        o.reconfig_enabled = true;
        o.fd_timeout_us = 400'000;
        o.fd_check_interval_us = 100'000;
        o.consensus_retry_us = 300'000;
      }
      return clock_rsm_factory(n, o);
    }
    case Protocol::kPaxos:
      return paxos_factory(n, /*leader=*/0, /*broadcast=*/false);
    case Protocol::kPaxosBcast:
      return paxos_factory(n, /*leader=*/0, /*broadcast=*/true);
    case Protocol::kMencius:
      return mencius_factory(n);
    case Protocol::kConsensus: {
      std::vector<ReplicaId> participants(n);
      for (std::size_t i = 0; i < n; ++i) participants[i] = static_cast<ReplicaId>(i);
      return [participants](ProtocolEnv& env, ReplicaId) {
        return std::make_unique<ConsensusAdapter>(env, participants);
      };
    }
  }
  throw std::invalid_argument("unknown protocol");
}

Command make_put(ClientId client, std::uint64_t seq, const std::string& key,
                 const std::string& value) {
  Command c;
  c.client = client;
  c.seq = seq;
  KvRequest r;
  r.op = KvOp::kPut;
  r.key = key;
  r.value = value;
  c.payload = r.encode();
  return c;
}

Command make_get(ClientId client, std::uint64_t seq, const std::string& key) {
  Command c;
  c.client = client;
  c.seq = seq;
  KvRequest r;
  r.op = KvOp::kGet;
  r.key = key;
  c.payload = r.encode();
  return c;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct ClientState {
  ReplicaId home = 0;
  std::uint64_t next_seq = 1;
  std::uint64_t awaiting_seq = 0;
  bool awaiting_read = false;
  bool stopped = false;
};

}  // namespace

std::string failure_category(const std::string& failure) {
  const std::size_t colon = failure.find(':');
  return colon == std::string::npos ? failure : failure.substr(0, colon);
}

RunResult run_scenario(const ScenarioSpec& spec) {
  RunResult result;
  std::ostringstream trace;
  trace << "spec " << spec.summary() << '\n';

  SimWorldOptions wopt;
  wopt.matrix = LatencyMatrix::uniform(spec.replicas, spec.latency_ms);
  wopt.seed = spec.seed;
  wopt.jitter_ms = spec.jitter_ms;
  wopt.clock_skew_ms = spec.clock_skew_ms;
  wopt.clock_drift = spec.clock_drift;
  wopt.lossy_crash = spec.lossy_crash;
  wopt.sync_is_noop = spec.sync_is_noop;
  wopt.max_batch_cmds = spec.max_batch_cmds;

  SimWorld w(wopt, make_factory(spec),
             [] { return std::make_unique<KvStore>(); });
  const std::size_t n = spec.replicas;

  // --- client workload -----------------------------------------------------
  HistoryChecker history;
  std::map<ClientId, ClientState> clients;
  Rng load_rng(spec.seed * 0x9e3779b97f4a7c15ULL + 1);

  // Reads go through the local read path, which only Clock-RSM has; for any
  // other protocol submit_read would fall back to riding the log and the
  // read hook below would never fire.
  const bool reads_enabled =
      spec.protocol == Protocol::kClockRsm && spec.read_fraction > 0.0;

  std::function<void(ClientId)> issue = [&](ClientId id) {
    ClientState& c = clients.at(id);
    if (c.stopped || w.sim().now() >= spec.load_until_us) return;
    if (w.crashed(c.home)) {
      // Closed loop against a down home replica: poll until it returns
      // rather than losing the client for the rest of the run.
      w.sim().after(100'000, [&issue, id] { issue(id); });
      return;
    }
    const std::uint64_t seq = c.next_seq++;
    c.awaiting_seq = seq;
    if (reads_enabled && load_rng.bernoulli(spec.read_fraction)) {
      // Half the reads target the client's own write key (read-your-writes
      // pressure), half roam the shared key space.
      const std::string key =
          "k" + std::to_string(load_rng.bernoulli(0.5)
                                   ? id % 7
                                   : load_rng.uniform_int(0, 6));
      c.awaiting_read = true;
      history.on_invoke_read(id, seq, key, w.sim().now());
      w.submit_read(c.home, make_get(id, seq, key));
      // Pending reads are protocol memory, not log entries: a crash of the
      // serving replica silently drops them. Reissue after a generous
      // timeout so the closed loop survives; the abandoned read simply
      // never responds and constrains nothing.
      w.sim().after(2'000'000, [&, id, seq] {
        ClientState& cs = clients.at(id);
        if (cs.awaiting_seq != seq || !cs.awaiting_read) return;
        cs.awaiting_seq = 0;
        cs.awaiting_read = false;
        issue(id);
      });
      return;
    }
    c.awaiting_read = false;
    // Values carry "client:seq" so they are unique per key — the contract
    // the read checker's value->version mapping rests on.
    const std::string key = "k" + std::to_string(id % 7);
    const std::string value =
        std::to_string(id) + ":" + std::to_string(seq);
    history.on_invoke_write(id, seq, key, value, w.sim().now());
    w.submit(c.home, make_put(id, seq, key, value));
  };

  w.set_commit_hook([&](ReplicaId r, const Command& cmd, Timestamp, bool local) {
    if (!local) return;
    auto it = clients.find(cmd.client);
    if (it == clients.end()) return;
    ClientState& c = it->second;
    if (r != c.home || cmd.seq != c.awaiting_seq || c.awaiting_read) return;
    c.awaiting_seq = 0;
    history.on_response(cmd.client, cmd.seq, w.sim().now());
    const Tick think = ms_to_us(load_rng.uniform(0.0, spec.think_max_ms));
    const ClientId id = cmd.client;
    w.sim().after(think, [&issue, id] { issue(id); });
  });

  // Read completions (workload reads and post-quiesce read probes alike)
  // arrive here; reads never show up in commit hooks or execution traces.
  std::map<ClientId, bool> read_probes;  // id -> responded
  w.set_read_hook([&](ReplicaId r, const Command& cmd, Timestamp,
                      std::string_view out) {
    history.on_response_read(cmd.client, cmd.seq, std::string(out),
                             w.sim().now());
    auto pit = read_probes.find(cmd.client);
    if (pit != read_probes.end()) {
      pit->second = true;
      return;
    }
    auto it = clients.find(cmd.client);
    if (it == clients.end()) return;
    ClientState& c = it->second;
    if (r != c.home || cmd.seq != c.awaiting_seq || !c.awaiting_read) return;
    c.awaiting_seq = 0;
    c.awaiting_read = false;
    const Tick think = ms_to_us(load_rng.uniform(0.0, spec.think_max_ms));
    const ClientId id = cmd.client;
    w.sim().after(think, [&issue, id] { issue(id); });
  });

  w.start();

  if (spec.protocol == Protocol::kConsensus) {
    // Dueling proposers: every replica proposes its own value early on.
    for (ReplicaId r = 0; r < n; ++r) {
      w.sim().at(1'000 + 40'000 * r, [&w, r] {
        if (!w.crashed(r)) {
          w.submit(r, make_put(1, 1, "decision", "v" + std::to_string(r)));
        }
      });
    }
  } else {
    for (ReplicaId r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < spec.clients_per_replica; ++i) {
        const ClientId id = make_client_id(r, i);
        clients.emplace(id, ClientState{.home = r});
        const Tick start = ms_to_us(load_rng.uniform(0.0, spec.think_max_ms));
        w.sim().after(start, [&issue, id] { issue(id); });
      }
    }
  }

  // --- fault schedule ------------------------------------------------------
  std::vector<bool> tainted(n, false);
  bool progress_checkable = true;

  for (const FaultEvent& f : spec.faults) {
    w.sim().at(f.at_us, [&, f] {
      // Tolerant application: a shrunk schedule may e.g. drop the crash that
      // preceded a restart. Inapplicable events are skipped, not errors.
      switch (f.kind) {
        case FaultKind::kCrash:
          if (f.a >= n || w.crashed(f.a)) return;
          w.crash(f.a);
          tainted[f.a] = true;
          break;
        case FaultKind::kRestart:
          if (f.a >= n || !w.crashed(f.a)) return;
          w.restart(f.a);
          break;
        // Partitions are injected as link *outages* (queue, flush on heal):
        // that is what the real stack gives a transient partition
        // (TcpTransport reconnect backlogs), and it is the channel model the
        // protocols' safety arguments assume. Blocked-link (lossy) variants
        // exist on SimTransport for hand-written safety studies; see
        // docs/TESTING.md for the divergence they produce.
        case FaultKind::kPartition:
          if (f.a >= n || f.b >= n || f.a == f.b) return;
          w.network().set_outage(f.a, f.b, true);
          tainted[f.a] = tainted[f.b] = true;
          break;
        case FaultKind::kHeal:
          if (f.a >= n || f.b >= n) return;
          w.network().set_outage(f.a, f.b, false);
          break;
        case FaultKind::kOneWay:
          if (f.a >= n || f.b >= n || f.a == f.b) return;
          w.network().set_link_outage(f.a, f.b, true);
          // Both endpoints are suspect afterwards: b missed messages, and a
          // may be ejected by b's failure detector under reconfiguration.
          tainted[f.a] = tainted[f.b] = true;
          break;
        case FaultKind::kOneWayHeal:
          if (f.a >= n || f.b >= n) return;
          w.network().set_link_outage(f.a, f.b, false);
          break;
        case FaultKind::kClockJump:
          if (f.a >= n) return;
          w.clock(f.a).step_us(f.value * 1000.0);
          break;
        case FaultKind::kClockDrift:
          if (f.a >= n || f.value <= 0.0) return;
          w.clock(f.a).set_rate(f.value);
          break;
        case FaultKind::kDelaySpike:
          w.network().set_extra_delay_us(ms_to_us(f.value));
          break;
        case FaultKind::kDelayClear:
          w.network().set_extra_delay_us(0);
          break;
        case FaultKind::kDupStart:
          w.network().set_dup_prob(f.value);
          break;
        case FaultKind::kDupStop:
          w.network().set_dup_prob(0.0);
          break;
        case FaultKind::kDropStart:
          w.network().set_drop_prob(f.value);
          progress_checkable = false;
          break;
        case FaultKind::kDropStop:
          w.network().set_drop_prob(0.0);
          break;
      }
      ++result.faults_applied;
      trace << "apply t=" << w.sim().now() << ' ' << f.to_string() << '\n';
    });
  }

  const bool allow_duplicates = std::any_of(
      spec.faults.begin(), spec.faults.end(),
      [](const FaultEvent& f) { return f.kind == FaultKind::kDupStart; });

  // --- quiesce: heal everything, restart the fallen, then probe ------------
  std::vector<ClientId> probe_ids;
  w.sim().at(spec.quiesce_us, [&] {
    w.network().clear_faults();
    for (ReplicaId r = 0; r < n; ++r) {
      if (w.crashed(r)) {
        w.restart(r);
        trace << "quiesce-restart t=" << w.sim().now() << " replica=" << r << '\n';
      }
    }
    trace << "quiesce t=" << w.sim().now() << '\n';
  });
  if (spec.protocol != Protocol::kConsensus) {
    w.sim().at(spec.quiesce_us + 200'000, [&] {
      for (ReplicaId r = 0; r < n; ++r) {
        if (tainted[r]) continue;
        const ClientId id = make_client_id(r, 1000);
        probe_ids.push_back(id);
        trace << "probe t=" << w.sim().now() << " replica=" << r << '\n';
        w.submit(r, make_put(id, 1, "probe" + std::to_string(r), "alive"));
      }
    });
  }
  if (spec.protocol == Protocol::kClockRsm) {
    // Read probes: after quiesce, every untainted replica must be able to
    // serve a local read — i.e. its stability point must pass a fresh read
    // timestamp. A replica whose reads hang forever is a liveness bug even
    // if its log is healthy. The probes also feed the stale-read checker.
    w.sim().at(spec.quiesce_us + 400'000, [&] {
      for (ReplicaId r = 0; r < n; ++r) {
        if (tainted[r]) continue;
        const ClientId id = make_client_id(r, 2000);
        read_probes.emplace(id, false);
        trace << "read-probe t=" << w.sim().now() << " replica=" << r << '\n';
        const std::string key = "k" + std::to_string(r % 7);
        history.on_invoke_read(id, 1, key, w.sim().now());
        w.submit_read(r, make_get(id, 1, key));
      }
    });
  }

  w.sim().run_until(spec.end_us);

  // --- invariants ----------------------------------------------------------
  auto fail = [&](const std::string& category, const std::string& detail) {
    if (!result.ok) return;  // keep the first violation
    result.ok = false;
    result.failure = category + ": " + detail;
  };

  // Timestamp order: execution is strictly increasing per replica in the
  // lexicographic (ts, sub) — commands batched into one envelope share its
  // timestamp and must execute in envelope order.
  for (ReplicaId r = 0; r < n && result.ok; ++r) {
    const auto& exec = w.execution(r);
    for (std::size_t i = 1; i < exec.size(); ++i) {
      const bool ordered =
          exec[i - 1].ts < exec[i].ts ||
          (exec[i - 1].ts == exec[i].ts && exec[i - 1].sub < exec[i].sub);
      if (!ordered) {
        fail("order", "replica " + std::to_string(r) +
                          " executed out of timestamp order at index " +
                          std::to_string(i) + " (" + exec[i - 1].ts.to_string() +
                          " sub " + std::to_string(exec[i - 1].sub) + " then " +
                          exec[i].ts.to_string() + " sub " +
                          std::to_string(exec[i].sub) + ")");
        break;
      }
    }
  }

  // Prefix agreement: common prefixes never diverge.
  for (ReplicaId a = 0; a < n && result.ok; ++a) {
    for (ReplicaId b = a + 1; b < n && result.ok; ++b) {
      const auto& ea = w.execution(a);
      const auto& eb = w.execution(b);
      const std::size_t common = std::min(ea.size(), eb.size());
      for (std::size_t i = 0; i < common; ++i) {
        if (ea[i].ts != eb[i].ts || !(ea[i].cmd == eb[i].cmd)) {
          fail("agreement",
               "replicas " + std::to_string(a) + " and " + std::to_string(b) +
                   " diverge at index " + std::to_string(i) + ": ts " +
                   ea[i].ts.to_string() + " vs " + eb[i].ts.to_string());
          break;
        }
      }
    }
  }

  // Convergence: replicas no fault ever touched end identical.
  ReplicaId ref = kNoReplica;
  std::size_t longest = 0;
  for (ReplicaId r = 0; r < n; ++r) {
    if (w.execution(r).size() >= longest) {
      // >= so ties pick the highest id deterministically; any maximal trace
      // works since common prefixes agree.
      longest = w.execution(r).size();
      ref = r;
    }
  }
  for (ReplicaId r = 0; r < n && result.ok; ++r) {
    if (tainted[r] || spec.protocol == Protocol::kConsensus) continue;
    for (ReplicaId s = r + 1; s < n; ++s) {
      if (tainted[s]) continue;
      if (w.execution(r).size() != w.execution(s).size()) {
        fail("convergence",
             "untainted replicas " + std::to_string(r) + " and " +
                 std::to_string(s) + " executed " +
                 std::to_string(w.execution(r).size()) + " vs " +
                 std::to_string(w.execution(s).size()) + " commands");
        break;
      }
      if (w.state_machine(r).state_digest() != w.state_machine(s).state_digest()) {
        fail("convergence", "untainted replicas " + std::to_string(r) + " and " +
                                std::to_string(s) + " have different state digests");
        break;
      }
    }
  }

  // Client history: durability + at-most-once + linearizability.
  if (ref != kNoReplica) {
    for (const ExecRecord& rec : w.execution(ref)) {
      history.on_commit(rec.cmd.client, rec.cmd.seq);
    }
  }
  const HistoryChecker::Report hist = history.check(allow_duplicates);
  result.completed_ops = hist.completed;
  if (result.ok && !hist.ok) {
    const std::string cat =
        hist.violation.rfind("stale-read", 0) == 0 ? "stale-read"
        : hist.violation.find("linearizability") == 0 ? "linearizability"
                                                      : "durability";
    fail(cat, hist.violation);
  }

  // Progress: probes commit at every untainted replica.
  if (progress_checkable && result.ok) {
    if (spec.protocol == Protocol::kConsensus) {
      for (ReplicaId r = 0; r < n; ++r) {
        if (tainted[r]) continue;
        if (w.execution(r).empty()) {
          fail("progress", "untainted replica " + std::to_string(r) +
                               " never learned the consensus decision");
          break;
        }
      }
    } else {
      for (ReplicaId r = 0; r < n && result.ok; ++r) {
        if (tainted[r]) continue;
        const auto& exec = w.execution(r);
        for (ClientId probe : probe_ids) {
          const bool found = std::any_of(
              exec.begin(), exec.end(), [probe](const ExecRecord& rec) {
                return rec.cmd.client == probe && rec.cmd.seq == 1;
              });
          if (!found) {
            fail("progress", "probe from replica " +
                                 std::to_string(client_home(probe)) +
                                 " never committed at untainted replica " +
                                 std::to_string(r));
            break;
          }
        }
      }
      // Read probes complete via the read hook, not the commit order.
      for (const auto& [probe, responded] : read_probes) {
        if (!result.ok) break;
        if (!responded) {
          fail("progress", "read probe at untainted replica " +
                               std::to_string(client_home(probe)) +
                               " never served (stability never passed its "
                               "read timestamp)");
        }
      }
    }
  }

  for (ReplicaId r = 0; r < n; ++r) {
    trace << "final replica=" << r << " len=" << w.execution(r).size()
          << " digest=" << hex64(w.state_machine(r).state_digest())
          << " tainted=" << (tainted[r] ? 1 : 0) << '\n';
  }
  // Debug aid (dst_swarm --spec replays): full per-replica execution
  // sequences. Env-gated so swarm traces stay compact; still deterministic.
  if (std::getenv("DST_DUMP_EXEC") != nullptr) {
    for (ReplicaId r = 0; r < n; ++r) {
      trace << "exec replica=" << r;
      if (spec.protocol == Protocol::kClockRsm) {
        const auto& p = static_cast<const ClockRsmReplica&>(w.protocol(r));
        trace << " epoch=" << p.epoch() << " cfg=" << p.config().size()
              << " frozen=" << p.frozen() << " catchup=" << p.catching_up();
      }
      trace << '\n';
      const auto& exec = w.execution(r);
      for (std::size_t i = 0; i < exec.size(); ++i) {
        trace << "  [" << i << "] ts=" << exec[i].ts.to_string()
              << " sub=" << exec[i].sub << " client=" << exec[i].cmd.client
              << " seq=" << exec[i].cmd.seq << " at=" << exec[i].sim_time_us
              << '\n';
      }
    }
  }
  trace << "history invoked=" << hist.invoked << " completed=" << hist.completed
        << " committed=" << hist.committed << " reads=" << hist.reads
        << " reads_completed=" << hist.reads_completed << '\n';
  trace << "result " << (result.ok ? "PASS" : "FAIL " + result.failure) << '\n';
  result.trace = trace.str();
  return result;
}

}  // namespace crsm::dst
