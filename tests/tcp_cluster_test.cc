// End-to-end tests for the real-TCP runtime: N NodeRuntimes on loopback
// ephemeral ports (TcpCluster). Every protocol must reach agreement over
// genuine sockets, the recorded history must pass the linearizability
// checker, the client wire path (SyncClient speaking
// kClientRequest/kClientReply) must work, and the transport's encode-once
// fan-out and coalescing accounting must hold.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <unistd.h>

#include <filesystem>

#include "kv/kv_store.h"
#include "net/sync_client.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "rsm/linearizability.h"
#include "runtime/tcp_cluster.h"
#include "runtime/throughput.h"
#include "test_util.h"
#include "workload/workload.h"

namespace crsm {
namespace {

using test::kv_factory;
using test::kv_put;

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds deadline =
                               std::chrono::milliseconds(10000)) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// Protocol agreement suite: every protocol x batch size {1, 16} —
// agreement and ordering must hold whether commands replicate one per
// PREPARE or rolled up into envelopes.
class TcpClusterTest
    : public ::testing::TestWithParam<std::tuple<const char*, std::size_t>> {
 protected:
  TcpCluster::ProtocolFactory factory(std::size_t n) const {
    const std::string p = std::get<0>(GetParam());
    if (p == "clockrsm") return clock_rsm_factory(n);
    if (p == "paxos") return paxos_factory(n, 0, false);
    if (p == "paxos-bcast") return paxos_factory(n, 0, true);
    return mencius_factory(n);
  }
  NodeConfig opts() const {
    NodeConfig o;
    o.max_batch_cmds = std::get<1>(GetParam());
    return o;
  }
};

TEST_P(TcpClusterTest, CommandsCommitAtAllReplicasOverTcp) {
  TcpCluster cluster(3, factory(3), kv_factory(), opts());
  std::atomic<int> replies{0};
  cluster.set_reply_hook([&](ReplicaId, const Command&) { ++replies; });
  cluster.start();
  for (int i = 0; i < 10; ++i) cluster.submit(0, kv_put(1, i + 1, "k", "v"));
  EXPECT_TRUE(eventually([&] {
    return replies.load() == 10 && cluster.executed(0) == 10 &&
           cluster.executed(1) == 10 && cluster.executed(2) == 10;
  }));
  cluster.stop();
}

TEST_P(TcpClusterTest, ConcurrentOriginsAgreeAndStateDigestsMatch) {
  TcpCluster cluster(3, factory(3), kv_factory(), opts());
  std::atomic<int> replies{0};
  // Per-replica execution order, recorded on each node's loop thread.
  std::mutex mu;
  std::vector<std::vector<Command>> exec(3);
  cluster.set_reply_hook([&](ReplicaId, const Command&) { ++replies; });
  cluster.set_commit_hook([&](ReplicaId r, const Command& cmd, Timestamp, bool) {
    std::lock_guard<std::mutex> lk(mu);
    exec[r].push_back(cmd);  // copy-on-retain owns the payload
  });
  cluster.start();
  constexpr int kPerReplica = 20;
  for (int i = 0; i < kPerReplica; ++i) {
    for (ReplicaId r = 0; r < 3; ++r) {
      cluster.submit(r, kv_put(make_client_id(r, 0), i + 1,
                               "k" + std::to_string(r), std::to_string(i)));
    }
  }
  ASSERT_TRUE(eventually([&] { return replies.load() == 3 * kPerReplica; }));
  ASSERT_TRUE(eventually([&] {
    return cluster.executed(0) == 3 * kPerReplica &&
           cluster.executed(1) == 3 * kPerReplica &&
           cluster.executed(2) == 3 * kPerReplica;
  }));
  // Agreement: identical command sequence and state digest everywhere.
  std::vector<std::uint64_t> digests;
  for (ReplicaId r = 0; r < 3; ++r) digests.push_back(cluster.node(r).state_digest());
  cluster.stop();
  {
    std::lock_guard<std::mutex> lk(mu);
    for (ReplicaId r = 1; r < 3; ++r) {
      ASSERT_EQ(exec[r].size(), exec[0].size()) << "replica " << r;
      for (std::size_t i = 0; i < exec[0].size(); ++i) {
        EXPECT_EQ(exec[r][i], exec[0][i]) << "replica " << r << " order differs at " << i;
      }
    }
  }
  EXPECT_EQ(digests[1], digests[0]);
  EXPECT_EQ(digests[2], digests[0]);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, TcpClusterTest,
    ::testing::Combine(::testing::Values("clockrsm", "paxos", "paxos-bcast",
                                         "mencius"),
                       ::testing::Values<std::size_t>(1, 16)),
    [](const auto& info) {
      std::string s = std::get<0>(info.param);
      for (char& c : s) {
        if (c == '-') c = '_';
      }
      return s + "_b" + std::to_string(std::get<1>(info.param));
    });

// Single-protocol suites, run under batch sizes {1, 16} and two wire
// coalescing budgets: the default, and 0 (one sendmsg per frame).
constexpr std::size_t kDefaultCoalesce = TcpTransportOptions{}.max_coalesce_bytes;

std::string config_name(std::size_t batch, std::size_t coalesce_budget) {
  return (coalesce_budget > 0 ? "coalesce_b" : "nocoalesce_b") +
         std::to_string(batch);
}

class TcpBackendTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
 protected:
  std::size_t batch() const { return std::get<0>(GetParam()); }
  std::size_t coalesce_budget() const { return std::get<1>(GetParam()); }

  NodeConfig opts() const {
    NodeConfig o;
    o.max_batch_cmds = batch();
    o.transport.max_coalesce_bytes = coalesce_budget();
    return o;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Configs, TcpBackendTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 16),
                       ::testing::Values<std::size_t>(kDefaultCoalesce, 0)),
    [](const auto& info) {
      return config_name(std::get<0>(info.param), std::get<1>(info.param));
    });

// The acceptance criterion: a 3-replica Clock-RSM cluster over real TCP
// sockets reaches agreement and its recorded history passes the
// linearizability checker (real-time order respected by the total order).
TEST_P(TcpBackendTest, ClockRsmHistoryIsLinearizable) {
  TcpCluster cluster(3, clock_rsm_factory(3), kv_factory(), opts());

  struct PendingOp {
    Tick invoke_us = 0;
    Tick response_us = 0;
  };
  std::mutex mu;
  std::map<std::pair<ClientId, std::uint64_t>, PendingOp> ops;  // by (client, seq)
  std::vector<std::pair<ClientId, std::uint64_t>> total_order;  // replica 0's

  const auto now_us = [] {
    return static_cast<Tick>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };

  std::atomic<int> replies{0};
  cluster.set_reply_hook([&](ReplicaId, const Command& cmd) {
    std::lock_guard<std::mutex> lk(mu);
    ops[{cmd.client, cmd.seq}].response_us = now_us();
    ++replies;
  });
  cluster.set_commit_hook([&](ReplicaId r, const Command& cmd, Timestamp, bool) {
    if (r != 0) return;
    std::lock_guard<std::mutex> lk(mu);
    total_order.emplace_back(cmd.client, cmd.seq);
  });
  cluster.start();

  // Three closed-loop clients, one per replica, interleaving in real time.
  constexpr int kOpsPerClient = 15;
  std::vector<std::thread> clients;
  for (ReplicaId r = 0; r < 3; ++r) {
    clients.emplace_back([&, r] {
      const ClientId id = make_client_id(r, 0);
      for (int seq = 1; seq <= kOpsPerClient; ++seq) {
        {
          std::lock_guard<std::mutex> lk(mu);
          ops[{id, static_cast<std::uint64_t>(seq)}].invoke_us = now_us();
        }
        cluster.submit(r, kv_put(id, seq, "key" + std::to_string(r),
                                 std::to_string(seq)));
        // Closed loop: wait for this op's reply before the next.
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
  for (auto& t : clients) t.join();
  ASSERT_TRUE(eventually([&] {
    return cluster.executed(0) == 3 * kOpsPerClient;
  }));
  cluster.stop();

  // Build OpRecords: order_index from replica 0's execution sequence.
  std::vector<OpRecord> records;
  {
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(total_order.size(), 3u * kOpsPerClient);
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

// Clients over real sockets: SyncClient handshakes, sends kClientRequest
// frames and gets routed replies carrying the state machine's output.
TEST_P(TcpBackendTest, SyncClientRoundTripsThroughAnyReplica) {
  TcpCluster cluster(3, clock_rsm_factory(3), kv_factory(), opts());
  cluster.start();

  for (ReplicaId r = 0; r < 3; ++r) {
    net::SyncClient client("127.0.0.1", cluster.port(r));
    EXPECT_EQ(client.server_id(), r);
    const ClientId id = make_client_id(r, 7);
    const std::string out =
        client.call(kv_put(id, 1, "sock-key", "sock-value"), /*timeout_ms=*/5000);
    EXPECT_EQ(out, "OK");
  }
  // All three puts replicate everywhere.
  ASSERT_TRUE(eventually([&] {
    return cluster.executed(0) == 3 && cluster.executed(1) == 3 &&
           cluster.executed(2) == 3;
  }));
  cluster.stop();
}

// --- the local read path over real sockets ---------------------------------

// A completed write is visible to a local read at EVERY replica, not just
// the write's origin: the stability rule holds the read until the write's
// PREPARE has arrived and executed.
TEST_P(TcpBackendTest, LocalReadsServeAtEveryReplica) {
  TcpCluster cluster(3, clock_rsm_factory(3), kv_factory(), opts());
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
  cluster.submit(0, kv_put(1, 1, "rk", "rv"));
  ASSERT_TRUE(eventually([&] { return replies.load() == 1; }));
  for (ReplicaId r = 0; r < 3; ++r) {
    cluster.submit_read(r, test::kv_get(100 + r, 1, "rk"));
  }
  ASSERT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lk(mu);
    return read_values.size() == 3;
  }));
  std::uint64_t served = 0;
  for (ReplicaId r = 0; r < 3; ++r) served += cluster.reads_served(r);
  cluster.stop();
  for (ReplicaId r = 0; r < 3; ++r) {
    EXPECT_EQ(read_values[100 + r], "rv") << "read at replica " << r;
  }
  EXPECT_EQ(served, 3u);
}

// Interleaved writes and cross-replica reads under load: every read is
// answered, reads never enter the replicated order (executed() counts only
// the writes), and the cluster still agrees.
TEST_P(TcpBackendTest, MixedReadWriteBurstOverRealSockets) {
  TcpCluster cluster(3, clock_rsm_factory(3), kv_factory(), opts());
  std::atomic<int> replies{0};
  std::atomic<int> reads_done{0};
  cluster.set_reply_hook([&](ReplicaId, const Command&) { ++replies; });
  cluster.set_read_hook([&](ReplicaId, const Command&, std::string_view) {
    ++reads_done;
  });
  cluster.start();
  constexpr int kRounds = 10;
  for (int i = 1; i <= kRounds; ++i) {
    for (ReplicaId r = 0; r < 3; ++r) {
      cluster.submit(r, kv_put(make_client_id(r, 0), i,
                               "k" + std::to_string(r), std::to_string(i)));
      // Each read targets another replica's key, from that replica's POV a
      // remote writer — the interesting interleaving.
      cluster.submit_read(r, test::kv_get(make_client_id(r, 1), i,
                                          "k" + std::to_string((r + 1) % 3)));
    }
  }
  EXPECT_TRUE(eventually([&] {
    return replies.load() == 3 * kRounds && reads_done.load() == 3 * kRounds;
  }));
  // Writes only in the replicated order; reads counted separately.
  EXPECT_TRUE(eventually([&] {
    return cluster.executed(0) == 3 * kRounds &&
           cluster.executed(1) == 3 * kRounds &&
           cluster.executed(2) == 3 * kRounds;
  }));
  std::uint64_t served = 0;
  for (ReplicaId r = 0; r < 3; ++r) served += cluster.reads_served(r);
  EXPECT_EQ(served, 3u * kRounds);
  cluster.stop();
}

// kClientRead/kClientReadReply over the wire: a follower serves the read
// locally, and a missing key reads back as the empty value.
TEST_P(TcpBackendTest, SyncClientReadCallServesFollowerReads) {
  TcpCluster cluster(3, clock_rsm_factory(3), kv_factory(), opts());
  cluster.start();
  net::SyncClient writer("127.0.0.1", cluster.port(0));
  EXPECT_EQ(writer.call(kv_put(make_client_id(0, 7), 1, "wire", "value"),
                        /*timeout_ms=*/5000),
            "OK");
  net::SyncClient reader("127.0.0.1", cluster.port(1));
  EXPECT_EQ(reader.read_call(test::kv_get(make_client_id(1, 7), 1, "wire"),
                             /*timeout_ms=*/5000),
            "value");
  EXPECT_EQ(reader.read_call(test::kv_get(make_client_id(1, 7), 2, "absent"),
                             /*timeout_ms=*/5000),
            "");
  EXPECT_GE(cluster.reads_served(1), 2u);
  cluster.stop();
}

// Protocols without a local read path fall back to riding the log: the read
// commits like a write but is answered through the read hook (and, over the
// wire, as a kClientReadReply) so clients see one uniform read interface.
TEST_P(TcpBackendTest, ProtocolsWithoutLocalReadsAnswerViaTheLog) {
  TcpCluster cluster(3, paxos_factory(3, 0, false), kv_factory(), opts());
  std::mutex mu;
  std::string got = "<unserved>";
  cluster.set_read_hook(
      [&](ReplicaId, const Command&, std::string_view out) {
        std::lock_guard<std::mutex> lk(mu);
        got = std::string(out);
      });
  std::atomic<int> replies{0};
  cluster.set_reply_hook([&](ReplicaId, const Command&) { ++replies; });
  cluster.start();
  cluster.submit(0, kv_put(1, 1, "pk", "pv"));
  ASSERT_TRUE(eventually([&] { return replies.load() == 1; }));
  cluster.submit_read(0, test::kv_get(2, 1, "pk"));
  ASSERT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lk(mu);
    return got != "<unserved>";
  }));
  // The logged read IS part of the replicated order here.
  EXPECT_TRUE(eventually([&] { return cluster.executed(0) == 2; }));
  EXPECT_EQ(cluster.reads_served(0), 1u);
  cluster.stop();
  std::lock_guard<std::mutex> lk(mu);
  EXPECT_EQ(got, "pv");
}

// Encode-once over TCP: a Clock-RSM broadcast is serialized once and
// written to every peer socket, so encode_calls stays well below
// messages_sent (the same acceptance bound the other transports meet).
// With per-pass coalescing on (the default budget), the wire counters must
// also show batching: fewer kernel handoffs than frames, frames/flush > 1.
// At a budget of 0 every frame leaves in its own sendmsg.
TEST_P(TcpBackendTest, EncodeOnceAndCoalescingCountersHold) {
  const std::size_t n = 3;
  TcpCluster cluster(n, clock_rsm_factory(n), kv_factory(), opts());
  std::atomic<int> replies{0};
  cluster.set_reply_hook([&](ReplicaId, const Command&) { ++replies; });
  cluster.start();
  // Frames produced before a link is up wait in its reconnect backlog,
  // which the connection takes over as one splice and writes in one
  // sendmsg whatever the budget. Measure live-link traffic only: every
  // link up first, then a per-node baseline read on each loop thread (so
  // no flush is half counted).
  ASSERT_TRUE(eventually([&] {
    for (ReplicaId r = 0; r < n; ++r) {
      if (cluster.node(r).transport().connected_peers() != n - 1) return false;
    }
    return true;
  }));
  std::uint64_t base_flushes = 0, base_frames = 0;
  for (ReplicaId r = 0; r < n; ++r) {
    const obs::Snapshot snap = cluster.node(r).metrics_snapshot();
    base_flushes += snap.counter_value("crsm_transport_wire_flushes_total");
    base_frames += snap.counter_value("crsm_transport_frames_flushed_total");
  }
  constexpr int kCmds = 30;
  for (int i = 0; i < kCmds; ++i) {
    cluster.submit(static_cast<ReplicaId>(i % n),
                   kv_put(make_client_id(i % n, 0), i / n + 1, "k", "v"));
  }
  ASSERT_TRUE(eventually([&] { return replies.load() == kCmds; }));
  // Stopped loops: the flush and frame counters are final and consistent
  // with each other.
  cluster.stop();
  const TransportStats s = cluster.stats();
  EXPECT_GT(s.messages_sent, 0u);
  EXPECT_GT(s.bytes_sent, 0u);
  EXPECT_GT(s.messages_delivered, 0u);
  // Every Clock-RSM message is a 3-replica broadcast: ~3 sends per encode.
  EXPECT_LE(s.encode_calls * 2, s.messages_sent)
      << "fan-out encode-once not in effect over TCP";
  const std::uint64_t flushes = s.wire_flushes - base_flushes;
  const std::uint64_t frames = s.frames_flushed - base_frames;
  EXPECT_GT(flushes, 0u);
  if (coalesce_budget() == 0) {
    // Each frame is flushed as it is queued: one sendmsg per frame, and the
    // pass-end flush that follows finds nothing left to write.
    EXPECT_EQ(flushes, frames);
  } else if (batch() == 1) {
    // A burst of 30 commands cannot have taken one kernel handoff per
    // frame. Only asserted for batch size 1: at batch 16 the commands are
    // already rolled up into a handful of envelope PREPAREs upstream of the
    // transport, so a pass often has exactly one frame per peer to flush
    // and frames/flush legitimately sits at 1.
    EXPECT_LT(flushes, frames)
        << "coalescing never batched two frames into one flush";
  }
}

// The observability acceptance case: a 3-replica durable cluster scraped
// mid-run over GET /metrics must (a) emit well-formed Prometheus exposition
// with the commit pipeline decomposed into separate WAL/ack/stability/
// execute histograms, (b) report counters that agree with the raw
// TransportStats/StorageStats structs, and (c) be monotone across scrapes.
TEST_P(TcpBackendTest, MetricsScrapeAgreesWithStatsAndIsMonotone) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("crsm_metrics_test_" + std::to_string(::getpid()) + "_" +
       config_name(batch(), coalesce_budget()));
  std::filesystem::remove_all(dir);
  NodeConfig o = opts();
  o.storage.dir = dir.string();  // durable: the WAL stage histogram is live
  o.obs.metrics_http = true;     // ephemeral port per node
  o.obs.trace_sample_every = 1;  // trace every origin command
  TcpCluster cluster(3, clock_rsm_factory(3), kv_factory(), o);
  std::atomic<int> replies{0};
  cluster.set_reply_hook([&](ReplicaId, const Command&) { ++replies; });
  cluster.start();
  for (int i = 0; i < 30; ++i) cluster.submit(0, kv_put(1, i + 1, "k", "v"));
  ASSERT_TRUE(eventually([&] {
    return replies.load() == 30 && cluster.executed(0) == 30 &&
           cluster.executed(1) == 30 && cluster.executed(2) == 30;
  }));

  const std::uint16_t mport = cluster.node(0).metrics_port();
  ASSERT_NE(mport, 0);

  // (a) Prometheus text exposition, stage decomposition present.
  const std::string prom = obs::http_get("127.0.0.1", mport, "/metrics");
  for (const char* series :
       {"crsm_stage_wal_us", "crsm_stage_ack_us", "crsm_stage_stability_us",
        "crsm_stage_execute_us"}) {
    EXPECT_NE(prom.find(std::string("# TYPE ") + series + " histogram"),
              std::string::npos)
        << series;
    EXPECT_NE(prom.find(std::string(series) + "_bucket{le=\"+Inf\"}"),
              std::string::npos)
        << series;
  }

  // (b) Agreement with the raw stats structs. The counters advance while we
  // look, so bracket the snapshot between two raw reads.
  const TransportStats t1 = cluster.node(0).transport_stats();
  const StorageStats s1 = cluster.node(0).storage_stats();
  const obs::Snapshot snap1 = cluster.node(0).metrics_snapshot();
  const TransportStats t2 = cluster.node(0).transport_stats();
  const StorageStats s2 = cluster.node(0).storage_stats();
  const std::uint64_t sent =
      snap1.counter_value("crsm_transport_messages_sent_total");
  EXPECT_GE(sent, t1.messages_sent);
  EXPECT_LE(sent, t2.messages_sent);
  const std::uint64_t appends =
      snap1.counter_value("crsm_storage_appends_total");
  EXPECT_GE(appends, s1.appends);
  EXPECT_LE(appends, s2.appends);
  EXPECT_EQ(snap1.counter_value("crsm_executed_total"), 30u);
  EXPECT_GT(snap1.counter_value("crsm_trace_spans_total"), 0u);
  // Link health: both peer links up, nothing queued for a down link. Node 0
  // has no lower-id peer to wake; the wakes it got (its peers' start-up
  // wakes) agree with the raw stats.
  const obs::MetricValue* peers = snap1.find("crsm_transport_connected_peers");
  ASSERT_NE(peers, nullptr);
  EXPECT_EQ(peers->kind, obs::MetricKind::kGauge);
  EXPECT_EQ(peers->gauge, 2.0);
  const obs::MetricValue* backlog = snap1.find("crsm_transport_backlog_bytes");
  ASSERT_NE(backlog, nullptr);
  EXPECT_EQ(backlog->kind, obs::MetricKind::kGauge);
  EXPECT_EQ(backlog->gauge, 0.0);
  ASSERT_NE(snap1.find("crsm_transport_wakes_sent_total"), nullptr);
  ASSERT_NE(snap1.find("crsm_transport_wakes_received_total"), nullptr);
  EXPECT_EQ(snap1.counter_value("crsm_transport_wakes_sent_total"), 0u);
  const std::uint64_t wakes =
      snap1.counter_value("crsm_transport_wakes_received_total");
  EXPECT_GE(wakes, t1.wakes_received);
  EXPECT_LE(wakes, t2.wakes_received);
  // The in-memory log length sits beside the checkpoint counter: 30 commits
  // stay under the default cadence, so nothing was truncated and the log
  // holds every record ever appended.
  const obs::MetricValue* log_records = snap1.find("crsm_log_records");
  ASSERT_NE(log_records, nullptr);
  EXPECT_EQ(log_records->kind, obs::MetricKind::kGauge);
  EXPECT_EQ(snap1.counter_value("crsm_storage_checkpoints_total"), 0u);
  EXPECT_GE(log_records->gauge, static_cast<double>(s1.appends));
  EXPECT_LE(log_records->gauge, static_cast<double>(s2.appends));
  // Beside it, the bytes that log holds: 16 per record, plus a command and
  // its payload per PREPARE entry.
  const obs::MetricValue* log_bytes = snap1.find("crsm_log_bytes");
  ASSERT_NE(log_bytes, nullptr);
  EXPECT_EQ(log_bytes->kind, obs::MetricKind::kGauge);
  EXPECT_GT(log_bytes->gauge, 16.0 * log_records->gauge);

  // (c) Monotone across scrapes with load in between; stage histograms fill.
  for (int i = 0; i < 20; ++i) cluster.submit(0, kv_put(1, 31 + i, "k", "v"));
  ASSERT_TRUE(eventually([&] { return replies.load() == 50; }));
  const obs::Snapshot snap2 = cluster.node(0).metrics_snapshot();
  for (const obs::MetricValue& m : snap1.metrics) {
    const obs::MetricValue* later = snap2.find(m.name);
    ASSERT_NE(later, nullptr) << m.name;
    if (m.kind == obs::MetricKind::kCounter) {
      EXPECT_GE(later->counter, m.counter) << m.name;
    } else if (m.kind == obs::MetricKind::kHistogram) {
      EXPECT_GE(later->hist.count, m.hist.count) << m.name;
    }
  }
  EXPECT_EQ(snap2.counter_value("crsm_executed_total"), 50u);
  if (batch() > 1) {
    // Batching accounting: node 0 enqueued all 50 origin commands, each
    // reached the protocol through a counted submission, and the batch-size
    // histogram saw every cut.
    EXPECT_EQ(snap2.counter_value("crsm_batch_cmds_total"), 50u);
    const std::uint64_t subs =
        snap2.counter_value("crsm_batch_submissions_total");
    EXPECT_GT(subs, 0u);
    EXPECT_LE(subs, 50u);
    const obs::MetricValue* bh = snap2.find("crsm_batch_cmds");
    ASSERT_NE(bh, nullptr);
    EXPECT_EQ(bh->hist.count, subs);
  }
  const obs::MetricValue* wal = snap2.find("crsm_stage_wal_us");
  ASSERT_NE(wal, nullptr);
  EXPECT_GT(wal->hist.count, 0u);
  const obs::MetricValue* stab = snap2.find("crsm_stage_stability_us");
  ASSERT_NE(stab, nullptr);
  EXPECT_GT(stab->hist.count, 0u);

  // The JSON endpoint serves the same registry as one flat object.
  const std::string json = obs::http_get("127.0.0.1", mport, "/metrics.json");
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"crsm_executed_total\": 50"), std::string::npos);

  cluster.stop();
  std::filesystem::remove_all(dir);
}

// --- closed-loop throughput driver (runtime/throughput.h) -----------------

TEST(Throughput, MeasuresCommittedOps) {
  ThroughputOptions opt;
  opt.num_replicas = 3;
  opt.clients_per_replica = 4;
  opt.payload_bytes = 64;
  opt.warmup_s = 0.1;
  opt.duration_s = 0.4;
  const ThroughputResult r = run_throughput(opt, clock_rsm_factory(3));
  EXPECT_GT(r.total_ops, 0u);
  EXPECT_GT(r.kops_per_sec, 0.0);
}

TEST(Throughput, ImbalancedOptionRestrictsOrigins) {
  ThroughputOptions opt;
  opt.num_replicas = 3;
  opt.clients_per_replica = 2;
  opt.payload_bytes = 32;
  opt.warmup_s = 0.05;
  opt.duration_s = 0.2;
  opt.only_replica = 1;
  const ThroughputResult r = run_throughput(opt, mencius_factory(3));
  EXPECT_GT(r.total_ops, 0u);
}

// Figure 8's "cluster kops/s" rests on each replica's event-loop busy time:
// the busiest replica bounds what an N-machine cluster would sustain, and
// its share of the total busy time lies in [1/N, 1].
TEST(Throughput, ReportsPerReplicaBusyTime) {
  ThroughputOptions opt;
  opt.num_replicas = 3;
  opt.clients_per_replica = 4;
  opt.payload_bytes = 100;
  opt.warmup_s = 0.1;
  opt.duration_s = 0.4;
  const ThroughputResult r = run_throughput(opt, paxos_factory(3, 0, false));
  ASSERT_GT(r.total_ops, 0u);
  EXPECT_GT(r.kops_per_sec_bottleneck, 0.0);
  EXPECT_GE(r.max_cpu_share, 1.0 / 3.0 - 1e-9);
  EXPECT_LE(r.max_cpu_share, 1.0);
}

}  // namespace
}  // namespace crsm
