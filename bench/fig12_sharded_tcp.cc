// Figure 12 (extension, not in the paper): multi-group scaling over real
// sockets.
//
// The bench runs sharding on the production shape — a TcpCluster of three
// MultiGroupNodes (what `crsm_node --groups N` runs) hosting `groups`
// independent Clock-RSM groups, each group with its own event-loop threads,
// loopback sockets and durable WAL (per-pass group commit) under
// <tmp>/node-<r>/group-<g>, exactly the topology a set of multi-group
// crsm_node processes forms. Closed-loop clients are
// partitioned by key: each client owns keys that hash (kv_key_hash, the
// ShardRouter mapping) to its group, so no command ever crosses a group —
// the independence that lets aggregate throughput scale.
//
// Reported per row (groups in {1, 2, 4}): aggregate committed cmds/s, the
// per-group split (a lopsided split means the key partition or the host is
// skewed, not the protocol), and client-observed p50/p99 — per-command
// latency should stay that of a single group while aggregate throughput
// climbs. The speedup_2/speedup_4 JSON keys are the acceptance ratios CI
// asserts (2 groups > 1.5x of 1 group on a multi-core runner). On hosts
// with fewer cores than groups the protocol threads time-share and the
// scaling flattens toward the core count; the fsync overlap across groups
// is then the remaining win.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "harness/latency_experiment.h"
#include "harness/report.h"
#include "kv/kv_store.h"
#include "runtime/tcp_cluster.h"
#include "shard/shard_router.h"
#include "util/stats.h"
#include "workload/workload.h"

namespace {

using namespace crsm;

// One outstanding request per client; the reply hook flips the flag.
struct Completion {
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t done_upto = 0;

  void complete(std::uint64_t seq) {
    {
      std::lock_guard<std::mutex> lk(mu);
      done_upto = std::max(done_upto, seq);
    }
    cv.notify_one();
  }
  bool wait_for_seq(std::uint64_t seq, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lk(mu);
    return cv.wait_for(lk, timeout, [&] { return done_upto >= seq; });
  }
};

struct GroupsResult {
  double agg_cmds_per_sec = 0.0;
  std::vector<double> per_group_cmds_per_sec;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

GroupsResult run_groups(std::size_t groups, std::size_t replicas,
                        std::size_t clients_per_group,
                        std::size_t payload_bytes, double warmup_s,
                        double duration_s, std::uint64_t seed) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("fig12_wal_" + std::to_string(::getpid()) + "_g" +
        std::to_string(groups)))
          .string();

  NodeConfig node;
  node.storage.dir = dir;
  node.max_batch_cmds = 16;  // the durable sweet spot from fig10
  TcpClusterOptions opt;
  opt.groups = groups;
  opt.pin_cores = true;

  TcpCluster cluster(replicas, clock_rsm_factory(replicas),
                     [] { return std::make_unique<KvStore>(); }, node, opt);

  // Per-group key sets: scan "key-<i>" until every group owns kKeysPerGroup
  // keys under the cluster's own router. Payloads are pre-encoded once.
  constexpr std::size_t kKeysPerGroup = 16;
  std::vector<std::vector<std::string>> payloads(groups);
  for (std::size_t i = 0; payloads.back().size() < kKeysPerGroup ||
                          payloads.front().size() < kKeysPerGroup;
       ++i) {
    const std::string key = "key-" + std::to_string(i);
    const ShardId g = cluster.router().shard_of_key(key);
    if (payloads[g].size() < kKeysPerGroup) {
      payloads[g].push_back(KvRequest::sized_put(key, payload_bytes).encode());
    }
    bool done = true;
    for (const auto& p : payloads) done = done && p.size() >= kKeysPerGroup;
    if (done) break;
  }

  std::unordered_map<ClientId, std::unique_ptr<Completion>> completions;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t c = 0; c < clients_per_group; ++c) {
      const ReplicaId home = static_cast<ReplicaId>(c % replicas);
      completions.emplace(
          make_sharded_client_id(static_cast<std::uint32_t>(g), home, c),
          std::make_unique<Completion>());
    }
  }
  cluster.set_reply_hook([&completions](ReplicaId, const Command& cmd) {
    auto it = completions.find(cmd.client);
    if (it != completions.end()) it->second->complete(cmd.seq);
  });

  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> group_ops;
  for (std::size_t g = 0; g < groups; ++g) {
    group_ops.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
  std::mutex lat_mu;
  LatencyStats lat;

  cluster.start();

  std::vector<std::thread> clients;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t c = 0; c < clients_per_group; ++c) {
      clients.emplace_back([&, g, c] {
        const ReplicaId home = static_cast<ReplicaId>(c % replicas);
        const ClientId id =
            make_sharded_client_id(static_cast<std::uint32_t>(g), home, c);
        Rng rng(seed ^ id);
        LatencyStats local;
        std::uint64_t seq = 0;
        while (!stop.load(std::memory_order_acquire)) {
          Command cmd;
          cmd.client = id;
          cmd.seq = ++seq;
          cmd.payload = payloads[g][static_cast<std::size_t>(
              rng.uniform_int(0, payloads[g].size() - 1))];
          const auto t0 = std::chrono::steady_clock::now();
          cluster.node(home, static_cast<ShardId>(g)).submit(std::move(cmd));
          auto* comp = completions.at(id).get();
          if (!comp->wait_for_seq(seq, std::chrono::milliseconds(2000))) {
            break;  // stuck or shutting down
          }
          if (measuring.load(std::memory_order_relaxed)) {
            const double ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            local.add(ms);
            group_ops[g]->fetch_add(1, std::memory_order_relaxed);
          }
        }
        std::lock_guard<std::mutex> lk(lat_mu);
        lat.merge(local);
      });
    }
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  measuring.store(true);
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(duration_s));
  measuring.store(false);
  const auto t1 = std::chrono::steady_clock::now();

  stop.store(true);
  for (std::thread& t : clients) t.join();
  cluster.stop();
  std::filesystem::remove_all(dir);

  GroupsResult res;
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  for (std::size_t g = 0; g < groups; ++g) {
    const double ops = static_cast<double>(group_ops[g]->load());
    res.per_group_cmds_per_sec.push_back(ops / secs);
    res.agg_cmds_per_sec += ops / secs;
  }
  if (!lat.empty()) {
    res.p50_ms = lat.percentile(50);
    res.p99_ms = lat.percentile(99);
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace crsm;
  using namespace crsm::bench;

  const BenchArgs args = parse_bench_args(argc, argv);
  JsonResult jr("fig12_sharded_tcp");
  const long ncpu = ::sysconf(_SC_NPROCESSORS_ONLN);
  jr.add("host_cores", static_cast<std::uint64_t>(ncpu > 0 ? ncpu : 1));

  const std::size_t replicas = 3;
  const std::size_t clients_per_group = 8;
  if (!args.json) {
    std::printf("Figure 12: multi-group scaling, %zu-replica Clock-RSM "
                "groups over loopback\nTCP, durable WAL (group commit), "
                "batch 16, %zu closed-loop clients per group,\nkeys "
                "partitioned by kv_key_hash. Host: %ld core(s).\n\n",
                replicas, clients_per_group, ncpu);
  }

  Table t({"groups", "agg kcmds/s", "per-group kcmds/s", "p50 ms", "p99 ms",
           "speedup"});
  double base = 0.0;
  for (const std::size_t groups : {1u, 2u, 4u}) {
    const GroupsResult r =
        run_groups(groups, replicas, clients_per_group, /*payload=*/100,
                   /*warmup=*/0.5, /*duration=*/2.0, args.seed);
    const std::string prefix = "groups_" + std::to_string(groups) + "_";
    jr.add(prefix + "cmds_per_sec", r.agg_cmds_per_sec);
    jr.add(prefix + "p50_ms", r.p50_ms);
    jr.add(prefix + "p99_ms", r.p99_ms);
    std::string split;
    for (std::size_t g = 0; g < groups; ++g) {
      jr.add(prefix + "group_" + std::to_string(g) + "_cmds_per_sec",
             r.per_group_cmds_per_sec[g]);
      if (!split.empty()) split += "/";
      split += fmt_count(r.per_group_cmds_per_sec[g] / 1000.0, 1);
    }
    if (groups == 1) base = r.agg_cmds_per_sec;
    const double speedup = base > 0 ? r.agg_cmds_per_sec / base : 0.0;
    if (groups > 1) {
      jr.add("speedup_" + std::to_string(groups), speedup);
    }
    t.add_row({std::to_string(groups), fmt_count(r.agg_cmds_per_sec / 1000.0, 2),
               split, fmt_count(r.p50_ms, 2), fmt_count(r.p99_ms, 2),
               groups > 1 ? fmt_count(speedup, 2) + "x" : "-"});
  }

  if (args.json) {
    jr.print(std::cout);
    return 0;
  }
  t.print(std::cout);
  std::printf("\nShape to check: aggregate cmds/s grows with the group count "
              "while p50 stays\nflat — groups never synchronize, so each one "
              "brings a full commit pipeline.\nOn hosts with fewer cores than "
              "protocol threads the curve bends toward the\ncore count; the "
              "per-group split staying even is the routing sanity check.\n");
  return 0;
}
