// Crash-restart tests for the durable TCP runtime: a FileLog-backed node in
// a 3-replica loopback cluster is hard-killed mid-run (its runtime destroyed
// with no protocol goodbye — the in-process kill -9), restarted from its log
// directory, and must replay its WAL, catch up over TCP from the live peers
// and rejoin the total order. The full run has to pass the linearizability
// checker, and state digests must agree at every replica afterwards.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "clockrsm/clock_rsm.h"
#include "common/batch.h"
#include "kv/kv_store.h"
#include "rsm/history.h"
#include "rsm/linearizability.h"
#include "runtime/tcp_cluster.h"
#include "storage/command_log.h"
#include "storage/recovery.h"
#include "test_util.h"
#include "workload/workload.h"

namespace crsm {
namespace {

using test::kv_factory;
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

// Established sockets dialed to one of the cluster's listening ports, read
// from the kernel's TCP table. With one socket per replica pair this is
// n(n-1)/2; a wake socket counts only until it is answered and closed.
std::size_t established_links(const TcpCluster& cluster) {
  std::set<std::uint16_t> ports;
  for (ReplicaId r = 0; r < cluster.num_replicas(); ++r) {
    ports.insert(cluster.port(r));
  }
  std::ifstream table("/proc/net/tcp");
  EXPECT_TRUE(table.is_open());
  std::string line;
  std::getline(table, line);  // header
  std::size_t links = 0;
  while (std::getline(table, line)) {
    std::istringstream fields(line);
    std::string slot, local, remote, state;
    fields >> slot >> local >> remote >> state;
    const auto port = static_cast<std::uint16_t>(
        std::stoul(remote.substr(remote.find(':') + 1), nullptr, 16));
    if (state == "01" && ports.contains(port)) ++links;  // 01 = ESTABLISHED
  }
  return links;
}

// Clock-RSM polling catch-up fast, for test speed.
TcpCluster::ProtocolFactory durable_clock_rsm_factory(std::size_t n) {
  ClockRsmOptions o;
  o.catchup_interval_us = 30'000;
  return clock_rsm_factory(n, o);
}

// Every crash-restart scenario runs under batch sizes {1, 16}: a kill -9
// must be survivable whether the WAL holds one record per command or one
// envelope record per batch.
class DurableClusterTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  std::size_t batch() const { return GetParam(); }

  void SetUp() override {
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    dir_ = std::filesystem::temp_directory_path() /
           ("crsm_durable_test_" + std::to_string(::getpid()) + "_" + name);
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  NodeConfig volatile_opts() const {
    NodeConfig o;
    o.max_batch_cmds = batch();
    return o;
  }

  NodeConfig durable_opts(std::uint64_t checkpoint_every = 0) const {
    NodeConfig o = volatile_opts();
    o.storage.dir = dir_.string();
    o.storage.checkpoint_every = checkpoint_every;
    return o;
  }

  std::filesystem::path dir_;
};

INSTANTIATE_TEST_SUITE_P(
    Batches, DurableClusterTest, ::testing::Values<std::size_t>(1, 16),
    [](const auto& info) { return "b" + std::to_string(info.param); });

// The acceptance scenario: kill -9 a replica mid-run, restart it from its
// log dir, and require (a) the cluster finishes every client's workload,
// (b) the restarted replica converges to the same state, and (c) the
// recorded history is linearizable.
TEST_P(DurableClusterTest, KilledReplicaRestartsCatchesUpAndHistoryLinearizable) {
  TcpCluster cluster(3, durable_clock_rsm_factory(3), kv_factory(),
                     durable_opts());

  struct PendingOp {
    Tick invoke_us = 0;
    Tick response_us = 0;
  };
  std::mutex mu;
  std::map<std::pair<ClientId, std::uint64_t>, PendingOp> ops;
  std::vector<std::pair<ClientId, std::uint64_t>> total_order;  // replica 0's

  cluster.set_reply_hook([&](ReplicaId, const Command& cmd) {
    std::lock_guard<std::mutex> lk(mu);
    ops[{cmd.client, cmd.seq}].response_us = now_us();
  });
  cluster.set_commit_hook([&](ReplicaId r, const Command& cmd, Timestamp, bool) {
    if (r != 0) return;
    std::lock_guard<std::mutex> lk(mu);
    total_order.emplace_back(cmd.client, cmd.seq);
  });
  cluster.start();

  // Closed-loop clients at replicas 0 and 1 (no client talks to the victim:
  // its in-process reply hooks die with it). Commits stall while replica 2
  // is down — commit stability needs every configured replica's clock — and
  // resume once the restart brings it back, so the loops simply pause.
  constexpr int kOpsPerClient = 24;
  std::vector<std::thread> clients;
  for (ReplicaId r = 0; r < 2; ++r) {
    clients.emplace_back([&, r] {
      const ClientId id = make_client_id(r, 0);
      for (int seq = 1; seq <= kOpsPerClient; ++seq) {
        {
          std::lock_guard<std::mutex> lk(mu);
          ops[{id, static_cast<std::uint64_t>(seq)}].invoke_us = now_us();
        }
        cluster.submit(r, kv_put(id, seq, "key" + std::to_string(r),
                                 std::to_string(seq)));
        while (true) {
          {
            std::lock_guard<std::mutex> lk(mu);
            if (ops[{id, static_cast<std::uint64_t>(seq)}].response_us != 0) break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }

  // Let some traffic commit, then hard-kill replica 2 mid-run.
  ASSERT_TRUE(eventually([&] { return cluster.executed(0) >= 8; }));
  cluster.kill(2);
  EXPECT_FALSE(cluster.alive(2));
  // Give the cluster a moment with the replica down (submissions keep
  // arriving and must not commit), then bring it back from its WAL.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  cluster.restart(2);
  EXPECT_TRUE(cluster.alive(2));
  EXPECT_TRUE(cluster.node(2).recovering());

  for (auto& t : clients) t.join();
  const std::uint64_t total = 2 * kOpsPerClient;
  ASSERT_TRUE(eventually([&] {
    return cluster.executed(0) == total && cluster.executed(1) == total &&
           cluster.executed(2) == total;
  })) << "executed: " << cluster.executed(0) << "/" << cluster.executed(1)
      << "/" << cluster.executed(2);

  std::vector<std::uint64_t> digests;
  for (ReplicaId r = 0; r < 3; ++r) digests.push_back(cluster.node(r).state_digest());
  cluster.stop();
  EXPECT_EQ(digests[1], digests[0]);
  EXPECT_EQ(digests[2], digests[0]);

  // Linearizability: real-time order respected by replica 0's total order.
  std::vector<OpRecord> records;
  {
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(total_order.size(), total);
    for (std::size_t i = 0; i < total_order.size(); ++i) {
      const auto key = total_order[i];
      const PendingOp& op = ops.at(key);
      ASSERT_GT(op.invoke_us, 0u);
      ASSERT_GT(op.response_us, 0u);
      OpRecord rec;
      rec.client = key.first;
      rec.seq = key.second;
      rec.invoke_us = op.invoke_us;
      rec.response_us = op.response_us;
      rec.order_index = i;
      records.push_back(rec);
    }
  }
  const LinearizabilityResult result = check_real_time_order(std::move(records));
  EXPECT_TRUE(result.ok) << result.violation;
}

// Rejoin is event-driven: the restarted replica wakes the survivors, which
// redial at once instead of waiting out their reconnect backoff. With a
// 200 ms initial / 2 s max backoff and a 1 s outage, the survivors' next
// scheduled attempt would land ~600 ms after the restart; the wake must
// have every link back within 150 ms, keep one socket per replica pair,
// and leave a linearizable history.
TEST_P(DurableClusterTest, RestartedReplicaRejoinsWithoutWaitingOutBackoff) {
  NodeConfig o = durable_opts();
  o.transport.reconnect.initial_backoff_us = 200'000;
  o.transport.reconnect.max_backoff_us = 2'000'000;
  TcpCluster cluster(3, durable_clock_rsm_factory(3), kv_factory(), o);

  std::mutex mu;
  HistoryChecker history;
  std::set<std::pair<ClientId, std::uint64_t>> replied;
  cluster.set_reply_hook([&](ReplicaId, const Command& cmd) {
    std::lock_guard<std::mutex> lk(mu);
    history.on_response(cmd.client, cmd.seq, now_us());
    replied.emplace(cmd.client, cmd.seq);
  });
  cluster.set_commit_hook([&](ReplicaId r, const Command& cmd, Timestamp, bool) {
    if (r != 0) return;  // replica 0 never dies: its order is the total order
    std::lock_guard<std::mutex> lk(mu);
    history.on_commit(cmd.client, cmd.seq);
  });
  const auto all_linked = [&] {
    for (ReplicaId r = 0; r < 3; ++r) {
      if (cluster.node(r).transport().connected_peers() != 2) return false;
    }
    return true;
  };
  cluster.start();
  ASSERT_TRUE(eventually(all_linked));

  // Closed-loop clients at the survivors; their commits stall while
  // replica 2 is down and resume once it rejoins.
  constexpr int kOpsPerClient = 24;
  std::vector<std::thread> clients;
  for (ReplicaId r = 0; r < 2; ++r) {
    clients.emplace_back([&, r] {
      const ClientId id = make_client_id(r, 0);
      for (std::uint64_t seq = 1; seq <= kOpsPerClient; ++seq) {
        {
          std::lock_guard<std::mutex> lk(mu);
          history.on_invoke(id, seq, now_us());
        }
        cluster.submit(r, kv_put(id, seq, "key" + std::to_string(r),
                                 std::to_string(seq)));
        while (true) {
          {
            std::lock_guard<std::mutex> lk(mu);
            if (replied.contains({id, seq})) break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }

  ASSERT_TRUE(eventually([&] { return cluster.executed(0) >= 8; }));
  cluster.kill(2);
  // Past the survivors' first redial and well into their backoff.
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  cluster.restart(2);
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(eventually(all_linked, std::chrono::milliseconds(5000)));
  const auto rejoin = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LE(rejoin.count(), 150) << "links back " << rejoin.count()
                                 << " ms after the restart";
  EXPECT_GE(cluster.node(2).transport_stats().wakes_sent, 2u);
  // Every wake socket closes once answered: one socket per pair remains.
  EXPECT_TRUE(eventually([&] { return established_links(cluster) == 3; }))
      << established_links(cluster) << " sockets among 3 replicas";
  EXPECT_TRUE(all_linked());

  for (auto& t : clients) t.join();
  const std::uint64_t total = 2 * kOpsPerClient;
  ASSERT_TRUE(eventually([&] {
    return cluster.executed(0) == total && cluster.executed(1) == total &&
           cluster.executed(2) == total;
  })) << "executed: " << cluster.executed(0) << "/" << cluster.executed(1)
      << "/" << cluster.executed(2);
  std::vector<std::uint64_t> digests;
  for (ReplicaId r = 0; r < 3; ++r) digests.push_back(cluster.node(r).state_digest());
  cluster.stop();
  EXPECT_EQ(digests[1], digests[0]);
  EXPECT_EQ(digests[2], digests[0]);

  std::lock_guard<std::mutex> lk(mu);
  const HistoryChecker::Report report = history.check();
  EXPECT_TRUE(report.ok) << report.violation;
  EXPECT_EQ(report.completed, total);
}

// Restart driven by checkpoint + log: with periodic checkpointing the
// victim's WAL prefix is truncated, so recovery must restore the snapshot
// first and only replay/catch up above it.
TEST_P(DurableClusterTest, RestartFromCheckpointPlusLogSuffix) {
  TcpCluster cluster(3, durable_clock_rsm_factory(3), kv_factory(),
                     durable_opts(/*checkpoint_every=*/5));
  std::atomic<int> replies{0};
  cluster.set_reply_hook([&](ReplicaId, const Command&) { ++replies; });
  // Per-replica execution traces: on divergence the failure message shows
  // exactly where the orders split.
  std::mutex trace_mu;
  std::vector<std::vector<std::string>> trace(3);
  cluster.set_commit_hook([&](ReplicaId r, const Command& cmd, Timestamp ts, bool) {
    std::lock_guard<std::mutex> lk(trace_mu);
    trace[r].push_back(ts.to_string() + " c" + std::to_string(cmd.client) +
                       " s" + std::to_string(cmd.seq));
  });
  cluster.start();

  constexpr int kPhaseA = 18;
  for (int i = 1; i <= kPhaseA; ++i) {
    cluster.submit(0, kv_put(make_client_id(0, 0), i, "k" + std::to_string(i % 4),
                             std::to_string(i)));
  }
  ASSERT_TRUE(eventually([&] {
    return replies.load() == kPhaseA &&
           cluster.executed(2) == static_cast<std::uint64_t>(kPhaseA);
  }));

  cluster.kill(2);
  cluster.restart(2);
  ASSERT_TRUE(cluster.node(2).recovering());

  constexpr int kPhaseB = 6;
  for (int i = 1; i <= kPhaseB; ++i) {
    cluster.submit(1, kv_put(make_client_id(1, 0), i, "kb", std::to_string(i)));
  }
  ASSERT_TRUE(eventually([&] { return replies.load() == kPhaseA + kPhaseB; }));

  // The restarted node converges to the same state and the same executed
  // count: the commands its checkpoint covers count as executed.
  const std::uint64_t total = kPhaseA + kPhaseB;
  ASSERT_TRUE(eventually([&] {
    return cluster.executed(0) == total && cluster.executed(1) == total &&
           cluster.executed(2) == total &&
           cluster.node(0).state_digest() == cluster.node(2).state_digest();
  })) << "executed 0/1/2: " << cluster.executed(0) << "/" << cluster.executed(1)
      << "/" << cluster.executed(2) << [&] {
        std::lock_guard<std::mutex> lk(trace_mu);
        std::string out = "\n";
        for (int r = 0; r < 3; ++r) {
          out += "replica " + std::to_string(r) + ":";
          for (const auto& s : trace[r]) out += " [" + s + "]";
          out += "\n";
        }
        return out;
      }();
  const std::uint64_t digest0 = cluster.node(0).state_digest();
  EXPECT_EQ(cluster.node(1).state_digest(), digest0);
  EXPECT_EQ(cluster.node(2).state_digest(), digest0);
  EXPECT_EQ(cluster.executed(2), cluster.executed(0));
  cluster.stop();
}

// Full-cluster restart: every replica is killed, every replica reboots
// recovering, and they must feed each other's catch-up (no live non-
// recovering majority exists) and resume service. Regression test for the
// mutual-catch-up deadlock: recovering replicas must answer CATCHUPREQ.
TEST_P(DurableClusterTest, WholeClusterKillAndRestartConverges) {
  TcpCluster cluster(3, durable_clock_rsm_factory(3), kv_factory(),
                     durable_opts());
  std::atomic<int> replies{0};
  cluster.set_reply_hook([&](ReplicaId, const Command&) { ++replies; });
  cluster.start();

  constexpr int kPhaseA = 10;
  for (int i = 1; i <= kPhaseA; ++i) {
    cluster.submit(0, kv_put(make_client_id(0, 0), i, "k", std::to_string(i)));
  }
  ASSERT_TRUE(eventually([&] {
    return replies.load() == kPhaseA &&
           cluster.executed(0) == kPhaseA && cluster.executed(1) == kPhaseA &&
           cluster.executed(2) == kPhaseA;
  }));

  // Power-cycle the whole cluster.
  for (ReplicaId r = 0; r < 3; ++r) cluster.kill(r);
  for (ReplicaId r = 0; r < 3; ++r) cluster.restart(r);
  for (ReplicaId r = 0; r < 3; ++r) ASSERT_TRUE(cluster.node(r).recovering());

  // Every replica replays its WAL and must exit catch-up (served by its
  // equally-recovering peers), then order new traffic.
  constexpr int kPhaseB = 5;
  for (int i = 1; i <= kPhaseB; ++i) {
    cluster.submit(1, kv_put(make_client_id(1, 0), i, "kb", std::to_string(i)));
  }
  ASSERT_TRUE(eventually([&] { return replies.load() == kPhaseA + kPhaseB; }))
      << "cluster did not resume after full restart (replies "
      << replies.load() << ")";
  ASSERT_TRUE(eventually([&] {
    return cluster.executed(0) == kPhaseA + kPhaseB &&
           cluster.executed(1) == kPhaseA + kPhaseB &&
           cluster.executed(2) == kPhaseA + kPhaseB;
  }));
  std::vector<std::uint64_t> digests;
  for (ReplicaId r = 0; r < 3; ++r) digests.push_back(cluster.node(r).state_digest());
  cluster.stop();
  EXPECT_EQ(digests[1], digests[0]);
  EXPECT_EQ(digests[2], digests[0]);
}

// The WAL of a hard-killed node must parse and replay cleanly: committed
// records in timestamp order, no corruption from the abrupt death.
TEST_P(DurableClusterTest, KilledNodesWalReplaysCleanly) {
  TcpCluster cluster(3, durable_clock_rsm_factory(3), kv_factory(),
                     durable_opts());
  std::atomic<int> replies{0};
  cluster.set_reply_hook([&](ReplicaId, const Command&) { ++replies; });
  cluster.start();
  constexpr int kOps = 12;
  for (int i = 1; i <= kOps; ++i) {
    cluster.submit(0, kv_put(make_client_id(0, 0), i, "k", std::to_string(i)));
  }
  ASSERT_TRUE(eventually([&] {
    return replies.load() == kOps &&
           cluster.executed(2) == static_cast<std::uint64_t>(kOps);
  }));
  cluster.kill(2);

  FileLog wal((dir_ / "node-2" / "wal.log").string());
  const ReplayResult rr = replay_log(wal.records());
  // Every client op that was acknowledged had reached a majority; replica
  // 2 executed all of them before the kill, so its commit marks cover them.
  // With batching on, a record may be an envelope holding several member
  // commands — count members, not records. Record timestamps stay strictly
  // increasing either way: members share their envelope's ts, but each WAL
  // record carries exactly one (enveloped or bare) command.
  std::size_t member_cmds = 0;
  for (std::size_t i = 0; i < rr.committed.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(rr.committed[i - 1].ts, rr.committed[i].ts);
    }
    member_cmds +=
        is_batch(rr.committed[i].cmd) ? split_batch(rr.committed[i].cmd).size() : 1;
  }
  EXPECT_EQ(member_cmds, static_cast<std::size_t>(kOps));
  if (batch() == 1) {
    EXPECT_EQ(rr.committed.size(), static_cast<std::size_t>(kOps));
  }
  cluster.stop();
}

// Group commit batches durability work: under concurrent load the number of
// fsyncs stays below the number of durability requests, and held messages
// prove PREPAREOK waited for the batch's durability point.
TEST_P(DurableClusterTest, GroupCommitBatchesFsyncs) {
  TcpCluster cluster(3, durable_clock_rsm_factory(3), kv_factory(),
                     durable_opts());
  std::atomic<int> replies{0};
  cluster.set_reply_hook([&](ReplicaId, const Command&) { ++replies; });
  cluster.start();
  constexpr int kOps = 60;
  for (int i = 1; i <= kOps; ++i) {
    // Burst across all three origins so every node sees back-to-back
    // PREPAREs within single loop passes.
    cluster.submit(static_cast<ReplicaId>(i % 3),
                   kv_put(make_client_id(i % 3, 0), i / 3 + 1, "k", "v"));
  }
  ASSERT_TRUE(eventually([&] { return replies.load() == kOps; }));
  const StorageStats s = cluster.node(0).storage_stats();
  cluster.stop();
  EXPECT_GT(s.appends, 0u);
  EXPECT_GT(s.sync_requests, 0u);
  EXPECT_GT(s.syncs, 0u);
  EXPECT_LE(s.syncs, s.sync_requests);
  EXPECT_GT(s.held_messages, 0u)
      << "PREPAREOKs should wait for the group-commit durability point";
}

// The read path across a hard kill: reads whose stability point needs the
// dead replica's clock stall rather than serve stale, and drain with the
// post-recovery state once the victim restarts from its WAL and its clock
// resumes feeding stability.
TEST_P(DurableClusterTest, ReadBurstStallsAcrossKillAndDrainsAfterRestart) {
  TcpCluster cluster(3, durable_clock_rsm_factory(3), kv_factory(),
                     durable_opts());
  std::atomic<int> replies{0};
  std::mutex mu;
  std::map<ClientId, std::string> read_values;
  cluster.set_reply_hook([&](ReplicaId, const Command&) { ++replies; });
  cluster.set_read_hook(
      [&](ReplicaId, const Command& cmd, std::string_view out) {
        std::lock_guard<std::mutex> lk(mu);
        read_values[cmd.client] = std::string(out);
      });
  cluster.start();

  cluster.submit(0, kv_put(make_client_id(0, 0), 1, "rk", "before"));
  ASSERT_TRUE(eventually([&] { return replies.load() == 1; }));

  // A first wave of reads serves normally while the cluster is whole.
  constexpr int kWave = 6;
  for (int i = 0; i < kWave; ++i) {
    cluster.submit_read(0, test::kv_get(make_client_id(0, 1 + i), 1, "rk"));
  }
  ASSERT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lk(mu);
    return read_values.size() == static_cast<std::size_t>(kWave);
  }));

  // kill -9 mid-burst: replica 2's clock stops feeding stability. A write
  // submitted now cannot commit, and reads submitted after it are held
  // twice over — behind the uncommitted smaller-timestamp write AND behind
  // stability itself.
  cluster.kill(2);
  cluster.submit(0, kv_put(make_client_id(0, 0), 2, "rk", "during"));
  for (int i = 0; i < kWave; ++i) {
    cluster.submit_read(0, test::kv_get(make_client_id(0, 100 + i), 1, "rk"));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(read_values.size(), static_cast<std::size_t>(kWave))
        << "reads served while a config replica's clock was dead";
  }
  EXPECT_EQ(replies.load(), 1);

  // Restart from the WAL: the write commits, and every held read drains
  // with the post-recovery value — never "before".
  cluster.restart(2);
  ASSERT_TRUE(eventually([&] { return replies.load() == 2; }));
  ASSERT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lk(mu);
    return read_values.size() == static_cast<std::size_t>(2 * kWave);
  }));
  EXPECT_GE(cluster.reads_served(0), static_cast<std::uint64_t>(2 * kWave));
  cluster.stop();
  std::lock_guard<std::mutex> lk(mu);
  for (int i = 0; i < kWave; ++i) {
    EXPECT_EQ(read_values[make_client_id(0, 1 + i)], "before");
    EXPECT_EQ(read_values[make_client_id(0, 100 + i)], "during");
  }
}

// MemLog clusters keep the PR 3 contract: no recovery, no restart support
// needed, but kill() still takes a node out and the rest stays consistent.
TEST_P(DurableClusterTest, VolatileClusterStillRunsWithoutLogDir) {
  TcpCluster cluster(3, durable_clock_rsm_factory(3), kv_factory(),
                     volatile_opts());
  std::atomic<int> replies{0};
  cluster.set_reply_hook([&](ReplicaId, const Command&) { ++replies; });
  cluster.start();
  for (int i = 1; i <= 5; ++i) {
    cluster.submit(0, kv_put(make_client_id(0, 0), i, "k", "v"));
  }
  ASSERT_TRUE(eventually([&] { return replies.load() == 5; }));
  EXPECT_FALSE(cluster.node(0).recovering());
  const StorageStats s = cluster.node(0).storage_stats();
  EXPECT_EQ(s.held_messages, 0u) << "volatile log never defers sends";
  cluster.stop();
}

}  // namespace
}  // namespace crsm
