// Tests for the multi-group (sharded) TCP runtime: group_config, the one
// derivation of group g's config that crsm_node and TcpCluster share, and
// end to end a TcpCluster whose every replica is a MultiGroupNode hosting
// one replica of each group on loopback, keys partitioned across groups by
// kv_key_hash (ShardRouter).
//
// What must hold:
//  * cross-shard linearizability — each group is an independent total order;
//    a per-group HistoryChecker over the real-socket run must pass on every
//    group, including across the in-process kill -9 of one whole process
//    (the MultiGroupNode hosting replica r of EVERY group) followed by WAL
//    replay + TCP catch-up on all groups;
//  * shard-aware clients — ShardedSyncClient and the servers agree on the
//    router mapping; a deliberately mis-routed command is rejected with
//    kClientRedirect (surfaced as WrongGroupError) and never applied;
//    local reads serve from group-local stability at every replica of the
//    owning group;
//  * per-group isolation — one group's stalled fsync must not hold back
//    another group's commits or metrics.
//
// The cluster cases are parameterized over batch size {1, 16} like the
// single-group suites.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "clockrsm/clock_rsm.h"
#include "kv/kv_store.h"
#include "net/sync_client.h"
#include "rsm/history.h"
#include "runtime/multi_group_node.h"
#include "runtime/tcp_cluster.h"
#include "shard/shard_router.h"
#include "shard/sharded_client.h"
#include "test_util.h"
#include "workload/workload.h"

namespace crsm {
namespace {

using test::kv_factory;
using test::kv_get;
using test::kv_put;

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds deadline =
                               std::chrono::milliseconds(30000)) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

Tick now_us() {
  return static_cast<Tick>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Clock-RSM polling catch-up fast, for test speed.
TcpCluster::ProtocolFactory durable_clock_rsm_factory(std::size_t n) {
  ClockRsmOptions o;
  o.catchup_interval_us = 30'000;
  return clock_rsm_factory(n, o);
}

// One key per (group, slot): scans "k<i>" until every group owns `per_group`
// keys under `router`. Deterministic, so clients and assertions agree.
std::vector<std::vector<std::string>> keys_per_group(const ShardRouter& router,
                                                     std::size_t per_group) {
  std::vector<std::vector<std::string>> keys(router.num_shards());
  std::size_t filled = 0;
  for (std::size_t i = 0; filled < keys.size(); ++i) {
    const std::string key = "k" + std::to_string(i);
    auto& bucket = keys[router.shard_of_key(key)];
    if (bucket.size() < per_group) {
      bucket.push_back(key);
      if (bucket.size() == per_group) ++filled;
    }
  }
  return keys;
}

// A base config with every field away from its default, so a field the
// derivation touches by mistake shows.
NodeConfig distinctive_base() {
  NodeConfig b;
  b.id = 2;
  b.transport.listen_host = "10.0.0.3";
  b.transport.listen_port = 7000;
  b.transport.max_coalesce_bytes = 4096;
  b.transport.reconnect.initial_backoff_us = 5;
  b.storage.dir = "wal-root";
  b.storage.checkpoint_every = 77;
  b.storage.test_fsync_delay_us = 3;
  b.max_batch_cmds = 16;
  b.max_batch_bytes = 1000;
  b.pin_core = 0;
  b.obs.metrics_http = true;
  b.obs.metrics_port = 9100;
  b.obs.trace_sample_every = 5;
  return b;
}

TEST(GroupConfig, OneGroupReturnsTheBaseUntouched) {
  const NodeConfig base = distinctive_base();
  EXPECT_EQ(group_config(base, 0, 1), base);
  EXPECT_EQ(group_config(NodeConfig{}, 0, 1), NodeConfig{});
  const std::vector<TcpPeer> peers = {{"a", 7000}, {"b", 7100}};
  const std::vector<TcpPeer> table = group_peers(peers, 0, 1);
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table[0].port, 7000);
  EXPECT_EQ(table[1].port, 7100);
}

TEST(GroupConfig, TwoGroupsStampLabelDirPortsAndCore) {
  const NodeConfig base = distinctive_base();
  const long ncpu_raw = ::sysconf(_SC_NPROCESSORS_ONLN);
  const auto ncpu = static_cast<ShardId>(ncpu_raw > 0 ? ncpu_raw : 1);
  for (ShardId g = 0; g < 2; ++g) {
    const NodeConfig cfg = group_config(base, g, 2);
    EXPECT_EQ(cfg.group, g);
    EXPECT_EQ(cfg.num_groups, 2u);
    EXPECT_EQ(cfg.storage.dir, "wal-root/group-" + std::to_string(g));
    EXPECT_EQ(cfg.transport.listen_port, 7000 + g);
    EXPECT_EQ(cfg.obs.metrics_port, 9100 + g);
    EXPECT_EQ(cfg.pin_core, static_cast<int>(g % ncpu));
    // Every other field is the base's.
    NodeConfig rest = cfg;
    rest.group = base.group;
    rest.num_groups = base.num_groups;
    rest.storage.dir = base.storage.dir;
    rest.transport.listen_port = base.transport.listen_port;
    rest.obs.metrics_port = base.obs.metrics_port;
    rest.pin_core = base.pin_core;
    EXPECT_EQ(rest, base) << "group " << g;

    const std::vector<TcpPeer> table =
        group_peers({{"a", 7000}, {"b", 7100}}, g, 2);
    ASSERT_EQ(table.size(), 2u);
    EXPECT_EQ(table[0].port, 7000 + g);
    EXPECT_EQ(table[1].port, 7100 + g);
  }

  // Zero ports stay ephemeral, a volatile base stays volatile and an
  // unpinned one unpinned: only the label is stamped.
  NodeConfig plain;
  plain.obs.metrics_http = true;
  const NodeConfig cfg = group_config(plain, 1, 2);
  EXPECT_EQ(cfg.transport.listen_port, 0);
  EXPECT_EQ(cfg.obs.metrics_port, 0);
  EXPECT_TRUE(cfg.storage.dir.empty());
  EXPECT_EQ(cfg.pin_core, -1);
  EXPECT_EQ(cfg.group, 1u);

  // TcpCluster's stride: node (g, r) of a 3-replica cluster on core
  // g * 3 + r.
  NodeConfig replica1;
  replica1.pin_core = 1;
  EXPECT_EQ(group_config(replica1, 1, 2, /*core_stride=*/3).pin_core,
            static_cast<int>(4 % ncpu));
}

class ShardedClusterTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  std::size_t batch() const { return GetParam(); }

  void SetUp() override {
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    dir_ = std::filesystem::temp_directory_path() /
           ("crsm_sharded_test_" + std::to_string(::getpid()) + "_" + name);
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  NodeConfig node(bool durable) const {
    NodeConfig o;
    o.max_batch_cmds = batch();
    if (durable) o.storage.dir = dir_.string();
    return o;
  }
  static TcpClusterOptions groups(std::size_t n) {
    TcpClusterOptions o;
    o.groups = n;
    return o;
  }

  std::filesystem::path dir_;
};

INSTANTIATE_TEST_SUITE_P(
    Batches, ShardedClusterTest, ::testing::Values<std::size_t>(1, 16),
    [](const auto& info) { return "b" + std::to_string(info.param); });

// The acceptance scenario: two durable groups, closed-loop writers on every
// group, kill -9 of the process hosting replica 2 (one replica of EVERY
// group at once) mid-run, restart, and require every group to finish its
// workload, converge state digests at all replicas, and pass the history
// checker — the histories compose because the groups never share a key.
TEST_P(ShardedClusterTest, ProcessKillAllGroupsLinearizableAndConverge) {
  constexpr std::size_t kGroups = 2;
  TcpCluster cluster(3, durable_clock_rsm_factory(3), kv_factory(),
                     node(/*durable=*/true), groups(kGroups));
  const auto keys = keys_per_group(cluster.router(), 1);

  // One HistoryChecker per group, fed under one lock: invokes/responses
  // from client threads, the commit order from group g's replica 0. Every
  // client id carries its group (make_sharded_client_id).
  std::mutex mu;
  std::vector<HistoryChecker> history(kGroups);
  std::map<std::pair<ClientId, std::uint64_t>, bool> responded;
  cluster.set_reply_hook([&](ReplicaId, const Command& cmd) {
    std::lock_guard<std::mutex> lk(mu);
    history[client_shard(cmd.client)].on_response(cmd.client, cmd.seq,
                                                  now_us());
    responded[{cmd.client, cmd.seq}] = true;
  });
  cluster.set_commit_hook(
      [&](ReplicaId r, const Command& cmd, Timestamp, bool) {
        if (r != 0) return;
        std::lock_guard<std::mutex> lk(mu);
        history[client_shard(cmd.client)].on_commit(cmd.client, cmd.seq);
      });
  cluster.start();

  // Closed-loop writers: one client per (group, origin replica 0|1). No
  // client homes at the victim — its in-process reply hooks die with it.
  // Commits stall while replica 2 is down (stability needs every replica's
  // clock) and resume after the restart, so the loops simply pause.
  constexpr int kOpsPerClient = 20;
  std::vector<std::thread> clients;
  for (std::size_t g = 0; g < kGroups; ++g) {
    for (ReplicaId r = 0; r < 2; ++r) {
      clients.emplace_back([&, g, r] {
        const ClientId id =
            make_sharded_client_id(static_cast<std::uint32_t>(g), r, 0);
        for (int seq = 1; seq <= kOpsPerClient; ++seq) {
          const std::string value =
              std::to_string(id) + ":" + std::to_string(seq);
          {
            std::lock_guard<std::mutex> lk(mu);
            history[g].on_invoke_write(id, seq, keys[g][0], value, now_us());
          }
          cluster.submit(r, kv_put(id, seq, keys[g][0], value));
          while (true) {
            {
              std::lock_guard<std::mutex> lk(mu);
              if (responded[{id, static_cast<std::uint64_t>(seq)}]) break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
      });
    }
  }

  // Let some traffic commit on every group, then kill the whole process
  // hosting replica 2 — one replica of every group goes down at once.
  ASSERT_TRUE(eventually([&] {
    return cluster.executed(0, 0) >= 4 && cluster.executed(0, 1) >= 4;
  }));
  cluster.kill(2);
  EXPECT_FALSE(cluster.alive(2));
  EXPECT_EQ(cluster.executed(2, 0), 0u);
  EXPECT_EQ(cluster.executed(2, 1), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  cluster.restart(2);
  ASSERT_TRUE(cluster.alive(2));
  for (ShardId g = 0; g < kGroups; ++g) {
    // crsm_node's layout under the node's own directory: group g of
    // replica 2 recovers from <dir>/node-2/group-<g>.
    EXPECT_TRUE(std::filesystem::exists(dir_ / "node-2" /
                                        ("group-" + std::to_string(g)) /
                                        "wal.log"));
    EXPECT_TRUE(cluster.node(2, g).recovering());
  }

  for (auto& t : clients) t.join();
  const std::uint64_t per_group = 2 * kOpsPerClient;
  for (ShardId g = 0; g < kGroups; ++g) {
    ASSERT_TRUE(eventually([&, g] {
      return cluster.executed(0, g) == per_group &&
             cluster.executed(1, g) == per_group &&
             cluster.executed(2, g) == per_group;
    })) << "group " << g << " executed: " << cluster.executed(0, g) << "/"
        << cluster.executed(1, g) << "/" << cluster.executed(2, g);
  }

  // Convergence: per-group state digests agree at every replica (including
  // the restarted one), and differ across groups (disjoint key spaces).
  for (ShardId g = 0; g < kGroups; ++g) {
    const std::uint64_t d0 = cluster.node(0, g).state_digest();
    EXPECT_EQ(cluster.node(1, g).state_digest(), d0) << "group " << g;
    EXPECT_EQ(cluster.node(2, g).state_digest(), d0) << "group " << g;
  }
  cluster.stop();

  // Each group's history passes independently; together they compose into
  // the cross-shard history because no key crosses a group boundary.
  std::lock_guard<std::mutex> lk(mu);
  for (std::size_t g = 0; g < kGroups; ++g) {
    const HistoryChecker::Report rep = history[g].check();
    EXPECT_TRUE(rep.ok) << "group " << g << ": " << rep.violation;
    EXPECT_EQ(rep.completed, per_group) << "group " << g;
    EXPECT_EQ(rep.committed, per_group) << "group " << g;
  }
}

// Shard-aware client correctness: ShardedSyncClient and the servers agree
// on the key -> group mapping (every write lands on exactly the group the
// client-side router picked), a deliberately mis-routed command is rejected
// with WrongGroupError and never applied anywhere, and local reads serve
// from group-local stability at every replica of the owning group.
TEST_P(ShardedClusterTest, ShardedClientRoutesRejectsMisroutesAndReadsLocal) {
  constexpr std::size_t kGroups = 2;
  TcpCluster cluster(3, clock_rsm_factory(3), kv_factory(),
                     node(/*durable=*/false), groups(kGroups));
  cluster.start();

  ShardedSyncClient client(cluster.endpoints(0));
  ASSERT_EQ(client.num_groups(), kGroups);

  // Write a spread of keys through the sharded client; count the per-group
  // split the client-side router predicts.
  constexpr int kKeys = 16;
  std::vector<std::uint64_t> expect(kGroups, 0);
  const ClientId id = make_sharded_client_id(0, 0, 9);
  std::uint64_t seq = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "route-" + std::to_string(i);
    ++expect[client.router().shard_of_key(key)];
    EXPECT_EQ(client.call(kv_put(id, ++seq, key, "v" + std::to_string(i)),
                          /*timeout_ms=*/5000),
              "OK");
  }
  ASSERT_GT(expect[0], 0u) << "workload never hit group 0";
  ASSERT_GT(expect[1], 0u) << "workload never hit group 1";
  // Server-side agreement: each group executed exactly the commands the
  // client-side router sent it — no rejection, no cross-application.
  for (ShardId g = 0; g < kGroups; ++g) {
    ASSERT_TRUE(eventually([&, g] { return cluster.executed(0, g) == expect[g]; }))
        << "group " << g << " executed " << cluster.executed(0, g)
        << ", client routed " << expect[g];
    EXPECT_EQ(cluster.node(0, g).wrong_group_rejections(), 0u);
  }

  // Mis-route on purpose: pick a group-0 key and send the write through a
  // raw SyncClient dialed at group 1. The server must answer with
  // kClientRedirect naming the owner — surfaced as WrongGroupError — and
  // never apply the command.
  std::string g0_key;
  for (int i = 0;; ++i) {
    g0_key = "misroute-" + std::to_string(i);
    if (client.router().shard_of_key(g0_key) == 0) break;
  }
  const std::uint64_t before_g1 = cluster.executed(0, 1);
  net::SyncClient wrong("127.0.0.1", cluster.port(0, 1));
  try {
    const std::string out =
        wrong.call(kv_put(id, ++seq, g0_key, "never-applied"),
                   /*timeout_ms=*/5000);
    FAIL() << "mis-routed write was accepted: " << out;
  } catch (const net::WrongGroupError& e) {
    EXPECT_EQ(e.owner, 0u);
  }
  EXPECT_GE(cluster.node(0, 1).wrong_group_rejections(), 1u);
  // Never silently applied: group 1 executed nothing new, and the key reads
  // back absent at its real owner.
  EXPECT_EQ(cluster.executed(0, 1), before_g1);
  EXPECT_EQ(client.read_call(kv_get(id, ++seq, g0_key), /*timeout_ms=*/5000),
            "");

  // Group-local stability reads: every completed write is visible via
  // read_call at EVERY replica of the owning group, not just the origin.
  for (int i = 0; i < 4; ++i) {
    const std::string key = "route-" + std::to_string(i);
    const ShardId owner = client.router().shard_of_key(key);
    for (ReplicaId r = 0; r < 3; ++r) {
      net::SyncClient reader("127.0.0.1", cluster.port(r, owner));
      EXPECT_EQ(reader.read_call(kv_get(id, ++seq, key), /*timeout_ms=*/5000),
                "v" + std::to_string(i))
          << "key " << key << " at group " << owner << " replica " << r;
    }
  }
  std::uint64_t reads = 0;
  for (ReplicaId r = 0; r < 3; ++r) {
    reads += cluster.reads_served(r, 0) + cluster.reads_served(r, 1);
  }
  EXPECT_GE(reads, 12u);
  cluster.stop();
}

// Per-group isolation: stall group 0's fsync (fault-injected delay on every
// WAL sync) and require group 1's commit pipeline and metrics to keep
// advancing at full speed — the groups share a process but no pipeline.
TEST_P(ShardedClusterTest, StalledGroupFsyncDoesNotBlockOtherGroups) {
  constexpr std::size_t kGroups = 2;
  TcpClusterOptions o = groups(kGroups);
  // ~80 ms per group-0 sync: a closed-loop client through group 0 commits
  // at ~12 ops/s while group 1 runs at loopback speed.
  o.tweak = [](ShardId g, NodeConfig& cfg) {
    if (g == 0) cfg.storage.test_fsync_delay_us = 80'000;
  };
  TcpCluster cluster(3, durable_clock_rsm_factory(3), kv_factory(),
                     node(/*durable=*/true), std::move(o));
  const auto keys = keys_per_group(cluster.router(), 1);

  std::mutex mu;
  std::map<std::pair<ClientId, std::uint64_t>, bool> responded;
  cluster.set_reply_hook([&](ReplicaId, const Command& cmd) {
    std::lock_guard<std::mutex> lk(mu);
    responded[{cmd.client, cmd.seq}] = true;
  });
  cluster.start();

  // One closed-loop writer per group; the stalled group's writer plods,
  // the healthy group's writer must finish its whole workload meanwhile.
  constexpr int kHealthyOps = 40;
  std::atomic<bool> stop{false};
  std::thread stalled([&] {
    const ClientId id = make_sharded_client_id(0, 0, 0);
    for (std::uint64_t seq = 1; !stop.load(std::memory_order_acquire); ++seq) {
      cluster.submit(0, kv_put(id, seq, keys[0][0], std::to_string(seq)));
      while (!stop.load(std::memory_order_acquire)) {
        {
          std::lock_guard<std::mutex> lk(mu);
          if (responded[{id, seq}]) break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });

  const auto t0 = std::chrono::steady_clock::now();
  const ClientId healthy = make_sharded_client_id(1, 0, 0);
  for (std::uint64_t seq = 1; seq <= kHealthyOps; ++seq) {
    cluster.submit(0, kv_put(healthy, seq, keys[1][0], std::to_string(seq)));
    ASSERT_TRUE(eventually([&] {
      std::lock_guard<std::mutex> lk(mu);
      return responded[{healthy, seq}];
    })) << "healthy group stalled at op " << seq;
  }
  const double healthy_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // The healthy group finished kHealthyOps while the stalled group managed
  // at most healthy_secs / 80ms commits — it must not have kept pace, and
  // more importantly the healthy group must not have inherited the stall
  // (well under the ~3.2 s that kHealthyOps stalled commits would take).
  EXPECT_EQ(cluster.executed(0, 1), static_cast<std::uint64_t>(kHealthyOps));
  EXPECT_LT(healthy_secs, 0.08 * kHealthyOps)
      << "healthy group ran at the stalled group's pace";
  EXPECT_LT(cluster.executed(0, 0), cluster.executed(0, 1));

  // Metrics advance independently too: the healthy group's registry rated
  // the full workload while the stalled group's counter lags behind it.
  const obs::Snapshot healthy_snap = cluster.node(0, 1).metrics_snapshot();
  const obs::Snapshot stalled_snap = cluster.node(0, 0).metrics_snapshot();
  EXPECT_EQ(healthy_snap.counter_value("crsm_executed_total"),
            static_cast<std::uint64_t>(kHealthyOps));
  EXPECT_LT(stalled_snap.counter_value("crsm_executed_total"),
            healthy_snap.counter_value("crsm_executed_total"));

  stop.store(true);
  stalled.join();
  cluster.stop();
}

}  // namespace
}  // namespace crsm
