// crsm_node: one replica of a real TCP deployment.
//
// Hosts a NodeRuntime (any of the four protocols) given the cluster's full
// address table. Peers connect on the same port as clients; see
// docs/DEPLOYMENT.md for a 3-node walkthrough.
//
//   crsm_node --id 0 --peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//             [--protocol clockrsm|paxos|paxos-bcast|mencius] [--stats-every 5]
//             [--log-dir DIR] [--checkpoint-every N]
//             [--max-coalesce-bytes N]
//             [--max-batch-cmds N] [--max-batch-bytes N]
//             [--groups N] [--pin-cores]
//             [--metrics-port P] [--trace-sample N] [--slow-ms MS]
//
// The listen address is peers[id]. Runs until SIGINT/SIGTERM, printing a
// periodic one-line metrics snapshot (sorted k=v pairs) to stderr. Both
// signals are blocked in every thread and taken synchronously by the main
// thread (sigtimedwait), so shutdown begins the moment one arrives.
//
// --groups N hosts N independent replica groups in this process (one event
// loop thread each; --pin-cores pins group g to core g). Group g listens on
// peers[id].port + g and dials peers at their base port + g, logs under
// --log-dir/group-<g>, serves /metrics on --metrics-port + g with every
// series labeled {group="g"}, and rejects client commands whose ShardRouter
// owner is another group (kClientRedirect). Drive it with crsm_client
// --servers (one endpoint per group). The stats line becomes one line per
// group, tagged crsm_node[id/gG].
//
// --metrics-port serves GET /metrics (Prometheus text exposition 0.0.4) and
// GET /metrics.json from the node's loop thread — one unified registry
// covering wire, WAL, protocol, KV, commit-pipeline stage histograms and
// event-loop pass profile (see docs/OPERATIONS.md for the series reference).
// --trace-sample N stamps every Nth origin command through the commit
// pipeline (0 disables tracing); --slow-ms prints a rate-limited per-stage
// breakdown for traced commands slower than MS milliseconds.
//
// Every node checkpoints its state machine every N committed log entries
// (--checkpoint-every, default 10000, 0 = never) and drops the covered log
// prefix, so its memory stays proportional to its state and in-flight work
// rather than its history. A volatile node keeps the checkpoint in memory.
//
// With --log-dir the node is durable and restartable: commands are logged
// to DIR/wal.log with group commit (one fdatasync per loop pass),
// each checkpoint is written to DIR/checkpoint.bin before the WAL prefix it
// covers is truncated, and a restarted node recovers from checkpoint + WAL,
// then (Clock-RSM) catches up over TCP from live peers. See
// docs/OPERATIONS.md for the full walkthrough.
//
// --max-coalesce-bytes bounds the per-pass wire coalescing budget: a
// connection flushes once its queued bytes reach it, and at pass end
// (0 flushes every frame as it is queued; frames held for the pass-end
// fsync on a durable node still leave together after it).
//
// --max-batch-cmds N > 1 turns on protocol-level command batching: client
// writes arriving within one event-loop pass replicate as one batch
// envelope (one PREPARE, one ack round, one WAL record), cut early at N
// commands or --max-batch-bytes of payload. See docs/OPERATIONS.md for
// tuning guidance.
#include <pthread.h>
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "clockrsm/clock_rsm.h"
#include "harness/latency_experiment.h"
#include "kv/kv_store.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "runtime/multi_group_node.h"
#include "runtime/node.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --id N --peers host:port,host:port,... \\\n"
               "          [--protocol clockrsm|paxos|paxos-bcast|mencius] "
               "[--stats-every SECONDS] \\\n"
               "          [--log-dir DIR] [--checkpoint-every N (default %llu, "
               "0 = never)] \\\n"
               "          [--max-coalesce-bytes N] \\\n"
               "          [--max-batch-cmds N] [--max-batch-bytes N] \\\n"
               "          [--groups N] [--pin-cores] \\\n"
               "          [--metrics-port P] [--trace-sample N] "
               "[--slow-ms MS]\n",
               argv0,
               static_cast<unsigned long long>(
                   crsm::StorageOptions{}.checkpoint_every));
  std::exit(2);
}

std::vector<crsm::TcpPeer> parse_peers(const std::string& arg) {
  std::vector<crsm::TcpPeer> peers;
  std::size_t start = 0;
  while (start <= arg.size()) {
    std::size_t comma = arg.find(',', start);
    if (comma == std::string::npos) comma = arg.size();
    const std::string entry = arg.substr(start, comma - start);
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "bad peer '%s' (want host:port)\n", entry.c_str());
      std::exit(2);
    }
    crsm::TcpPeer p;
    p.host = entry.substr(0, colon);
    p.port = static_cast<std::uint16_t>(std::stoul(entry.substr(colon + 1)));
    peers.push_back(std::move(p));
    start = comma + 1;
  }
  return peers;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace crsm;

  ReplicaId id = kNoReplica;
  std::vector<TcpPeer> peers;
  std::string protocol = "clockrsm";
  int stats_every = 5;
  // The base config each group's config derives from (group_config).
  NodeConfig cfg;
  std::size_t groups = 1;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
      };
      if (a == "--id") {
        id = static_cast<ReplicaId>(std::stoul(next()));
      } else if (a == "--peers") {
        peers = parse_peers(next());
      } else if (a == "--protocol") {
        protocol = next();
      } else if (a == "--stats-every") {
        stats_every = std::atoi(next().c_str());
      } else if (a == "--log-dir") {
        cfg.storage.dir = next();
      } else if (a == "--checkpoint-every") {
        cfg.storage.checkpoint_every = std::stoull(next());
      } else if (a == "--max-coalesce-bytes") {
        cfg.transport.max_coalesce_bytes = std::stoull(next());
      } else if (a == "--max-batch-cmds") {
        cfg.max_batch_cmds = std::stoull(next());
        if (cfg.max_batch_cmds == 0) cfg.max_batch_cmds = 1;
      } else if (a == "--max-batch-bytes") {
        cfg.max_batch_bytes = std::stoull(next());
      } else if (a == "--groups") {
        groups = std::stoull(next());
        if (groups == 0) groups = 1;
      } else if (a == "--pin-cores") {
        cfg.pin_core = 0;  // group g on core g
      } else if (a == "--metrics-port") {
        cfg.obs.metrics_http = true;
        cfg.obs.metrics_host = "0.0.0.0";
        cfg.obs.metrics_port = static_cast<std::uint16_t>(std::stoul(next()));
      } else if (a == "--trace-sample") {
        cfg.obs.trace_sample_every = static_cast<std::uint32_t>(std::stoul(next()));
      } else if (a == "--slow-ms") {
        cfg.obs.trace_slow_us = std::stoull(next()) * 1000;
      } else {
        std::fprintf(stderr, "unknown flag %s\n", a.c_str());
        usage(argv[0]);
      }
    }
  } catch (const std::exception& e) {  // stoul/stod on malformed numbers
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    usage(argv[0]);
  }
  if (id == kNoReplica || peers.empty() || id >= peers.size()) usage(argv[0]);

  const std::size_t n = peers.size();
  if (!cfg.storage.dir.empty() && protocol != "clockrsm") {
    // The other protocols would append to the WAL but have no replay or
    // catch-up path: a restart would silently diverge while paying the
    // full durability cost. Refuse rather than pretend.
    std::fprintf(stderr,
                 "--log-dir requires --protocol clockrsm (crash-restart "
                 "recovery is not wired for %s)\n",
                 protocol.c_str());
    return 2;
  }
  NodeRuntime::ProtocolFactory factory;
  if (protocol == "clockrsm") {
    // A durable node that reboots with prior state catches up from its
    // peers before it resumes ordering.
    factory = clock_rsm_factory(n, ClockRsmOptions{});
  } else if (protocol == "paxos") {
    factory = paxos_factory(n, 0, false);
  } else if (protocol == "paxos-bcast") {
    factory = paxos_factory(n, 0, true);
  } else if (protocol == "mencius") {
    factory = mencius_factory(n);
  } else {
    std::fprintf(stderr, "unknown protocol '%s'\n", protocol.c_str());
    usage(argv[0]);
  }

  cfg.id = id;
  cfg.transport.listen_host = peers[id].host;
  cfg.transport.listen_port = peers[id].port;
  std::vector<NodeConfig> configs;
  std::vector<std::vector<TcpPeer>> group_tables;
  for (ShardId g = 0; g < groups; ++g) {
    configs.push_back(group_config(cfg, g, groups));
    group_tables.push_back(group_peers(peers, g, groups));
  }

  // Blocked before any thread exists, so every loop thread inherits the
  // mask and the main thread's sigtimedwait below is the only taker.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  // The listeners bind in the constructor: a taken port is an operator
  // error, reported like a bad flag rather than left to abort the process.
  std::optional<MultiGroupNode> built;
  try {
    built.emplace(configs, factory, [] { return std::make_unique<KvStore>(); });
  } catch (const net::NetError& e) {
    std::fprintf(stderr, "cannot listen on %s:%u: %s\n", peers[id].host.c_str(),
                 peers[id].port, e.what());
    return 2;
  }
  MultiGroupNode& node = *built;

  node.start(group_tables);
  std::fprintf(stderr,
               "crsm_node: replica %u (%s) listening on %s:%u, %zu peers "
               "| coalesce %zu bytes | batch %zu cmds%s\n",
               id, protocol.c_str(), peers[id].host.c_str(),
               node.group(0).port(), n - 1, cfg.transport.max_coalesce_bytes,
               cfg.max_batch_cmds,
               groups > 1
                   ? (" | " + std::to_string(groups) + " groups (port stride)" +
                      (cfg.pin_core >= 0 ? ", pinned" : ""))
                         .c_str()
                   : "");
  if (!cfg.storage.dir.empty()) {
    // One line per group: each has its own WAL dir and recovers on its own.
    for (std::size_t g = 0; g < groups; ++g) {
      std::fprintf(stderr, "crsm_node[%u]: durable in %s (group commit)%s\n",
                   id, configs[g].storage.dir.c_str(),
                   node.group(g).recovering()
                       ? ", recovering from prior state"
                       : "");
    }
  }
  if (cfg.obs.metrics_http) {
    for (std::size_t g = 0; g < groups; ++g) {
      std::fprintf(stderr, "crsm_node[%u]: metrics on http://%s:%u/metrics%s\n",
                   id, cfg.obs.metrics_host.c_str(), node.group(g).metrics_port(),
                   groups > 1 ? (" (group " + std::to_string(g) + ")").c_str()
                              : "");
    }
  }

  std::vector<std::uint64_t> last_executed(groups, 0);
  auto last = std::chrono::steady_clock::now();
  for (;;) {
    // Wait for a stop signal until the next stats line is due (an hour at
    // a time with stats off). A timeout or EINTR just re-checks the clock.
    std::chrono::nanoseconds wait = std::chrono::hours(1);
    if (stats_every > 0) {
      wait = std::max(std::chrono::nanoseconds(0),
                      last + std::chrono::seconds(stats_every) -
                          std::chrono::steady_clock::now());
    }
    const timespec ts{
        static_cast<time_t>(wait.count() / 1'000'000'000),
        static_cast<long>(wait.count() % 1'000'000'000)};
    const int sig = sigtimedwait(&stop_signals, nullptr, &ts);
    if (sig == SIGINT || sig == SIGTERM) break;
    const auto now = std::chrono::steady_clock::now();
    if (stats_every > 0 &&
        now - last >= std::chrono::seconds(stats_every)) {
      const double secs = std::chrono::duration<double>(now - last).count();
      // One unified registry snapshot per group in stable sorted k=v order:
      // wire, WAL, protocol (incl. reads served, catch-up rounds), KV, held
      // messages — greppable field-by-field across runs and across groups.
      // Single-group keeps the historic crsm_node[id] tag; multi-group tags
      // each line crsm_node[id/gG].
      for (std::size_t g = 0; g < groups; ++g) {
        const std::uint64_t exec = node.group(g).executed();
        const obs::Snapshot snap = node.group(g).metrics_snapshot();
        if (groups == 1) {
          std::fprintf(stderr, "crsm_node[%u]: %.0f cmds/s %s\n", id,
                       static_cast<double>(exec - last_executed[g]) / secs,
                       obs::to_kv_line(snap).c_str());
        } else {
          std::fprintf(stderr, "crsm_node[%u/g%zu]: %.0f cmds/s %s\n", id, g,
                       static_cast<double>(exec - last_executed[g]) / secs,
                       obs::to_kv_line(snap).c_str());
        }
        last_executed[g] = exec;
      }
      last = now;
    }
  }
  std::fprintf(stderr, "crsm_node[%u]: shutting down\n", id);
  node.stop();
  return 0;
}
