// Protocol-level command batching: the batch envelope (common/batch.h) and
// the real runtime's cut rules (runtime/node.cc). A NodeRuntime with
// --max-batch-cmds > 1 accumulates write commands arriving within one
// event-loop pass and replicates them as one envelope command — one
// PREPARE, one timestamp/ack round, one WAL record — then splits the
// envelope at execution and fans replies out per member. These tests pin
// the cut rules (count cap, byte cap, pass-end flush, singleton fallback),
// per-command reply ordering inside a batch, the cmds-per-PREPARE
// accounting, and WAL replay of envelope records across a kill -9
// mid-batch.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "clockrsm/clock_rsm.h"
#include "common/batch.h"
#include "common/codec.h"
#include "kv/kv_store.h"
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
                               std::chrono::milliseconds(15000)) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// --- the envelope itself ---------------------------------------------------

std::vector<Command> some_members(std::size_t n) {
  std::vector<Command> members;
  for (std::size_t i = 0; i < n; ++i) {
    members.push_back(kv_put(make_client_id(0, i), i + 1,
                             "k" + std::to_string(i), std::to_string(i)));
  }
  return members;
}

TEST(BatchEnvelope, SplitReturnsMembersInOrder) {
  const std::vector<Command> members = some_members(5);
  const Command env = make_batch(members, /*origin=*/2, /*counter=*/7);
  EXPECT_TRUE(is_batch(env));
  EXPECT_EQ(env.client, kBatchClient);
  EXPECT_EQ(split_batch(env), members);
}

TEST(BatchEnvelope, SeqPacksOriginAndCounter) {
  const Command a = make_batch(some_members(1), 3, 41);
  const Command b = make_batch(some_members(1), 3, 42);
  const Command c = make_batch(some_members(1), 4, 41);
  // Distinct (origin, counter) pairs yield distinct envelope identities, so
  // concurrent origins can never mint colliding envelopes.
  EXPECT_NE(a.seq, b.seq);
  EXPECT_NE(a.seq, c.seq);
  EXPECT_EQ(a.seq >> 40, 3u);
  EXPECT_EQ(c.seq >> 40, 4u);
}

TEST(BatchEnvelope, MemberCommandsAreNeverBatches) {
  // Real client ids come from make_client_id and can't reach the sentinel.
  for (const Command& m : some_members(4)) EXPECT_FALSE(is_batch(m));
}

TEST(BatchEnvelope, SplitRejectsNonEnvelopePayload) {
  Command fake;
  fake.client = kBatchClient;  // sentinel, but payload is not an envelope
  fake.seq = 1;
  fake.payload = std::string("not a frame");
  EXPECT_THROW((void)split_batch(fake), CodecError);
}

TEST(BatchEnvelope, SplitRejectsWrongMessageType) {
  // A well-formed frame of the wrong type must not split: only kCmdBatch
  // payloads are envelopes.
  Message m;
  m.type = MsgType::kClockTime;
  m.from = 0;
  Command fake;
  fake.client = kBatchClient;
  fake.seq = 1;
  fake.payload = m.encode();
  EXPECT_THROW((void)split_batch(fake), CodecError);
}

// --- cut rules on the real runtime -----------------------------------------

class BatchClusterTest : public ::testing::Test {
 protected:
  static NodeConfig opts(std::size_t max_cmds, std::size_t max_bytes) {
    NodeConfig o;
    o.max_batch_cmds = max_cmds;
    o.max_batch_bytes = max_bytes;
    return o;
  }
};

// A lone command must not wait for a full batch: the pass-end flush ships
// it immediately, as a bare command (submissions == cmds == 1, so no
// envelope overhead was paid).
TEST_F(BatchClusterTest, PassEndFlushShipsLoneCommandPromptly) {
  TcpCluster cluster(3, clock_rsm_factory(3), kv_factory(),
                     opts(/*max_cmds=*/16, /*max_bytes=*/256 * 1024));
  std::atomic<int> replies{0};
  cluster.set_reply_hook([&](ReplicaId, const Command&) { ++replies; });
  cluster.start();
  const auto t0 = std::chrono::steady_clock::now();
  cluster.submit(0, kv_put(make_client_id(0, 0), 1, "k", "v"));
  ASSERT_TRUE(eventually([&] { return replies.load() == 1; }));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Generous bound: the flush is per event-loop pass, not per timer, so a
  // singleton commits in network round-trip time, never "when 16 arrive".
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  const NodeRuntime::BatchStats bs = cluster.batch_stats();
  EXPECT_EQ(bs.cmds, 1u);
  EXPECT_EQ(bs.submissions, 1u);
  cluster.stop();
}

// Under a burst, the count cap amortizes: strictly fewer protocol
// submissions than commands (cmds/PREPARE > 1), everything still commits
// everywhere and replies fan out per member.
TEST_F(BatchClusterTest, BurstAmortizesSubmissionsUnderCountCap) {
  TcpCluster cluster(3, clock_rsm_factory(3), kv_factory(),
                     opts(/*max_cmds=*/8, /*max_bytes=*/256 * 1024));
  std::atomic<int> replies{0};
  cluster.set_reply_hook([&](ReplicaId, const Command&) { ++replies; });
  cluster.start();
  // Keep pouring bursts until at least one pass batched two commands into
  // one submission: scheduling decides how many posts a pass picks up, so
  // a single fixed-size burst cannot deterministically assert batching.
  int submitted = 0;
  ASSERT_TRUE(eventually([&] {
    for (int i = 0; i < 50; ++i) {
      ++submitted;
      cluster.submit(0, kv_put(make_client_id(0, 0), submitted, "k",
                               std::to_string(submitted)));
    }
    const NodeRuntime::BatchStats bs = cluster.batch_stats();
    return bs.submissions > 0 && bs.submissions < bs.cmds;
  }));
  ASSERT_TRUE(eventually([&] { return replies.load() == submitted; }));
  ASSERT_TRUE(eventually([&] {
    const auto n = static_cast<std::uint64_t>(submitted);
    return cluster.executed(0) == n && cluster.executed(1) == n &&
           cluster.executed(2) == n;
  }));
  const NodeRuntime::BatchStats bs = cluster.batch_stats();
  cluster.stop();
  EXPECT_EQ(bs.cmds, static_cast<std::uint64_t>(submitted));
  EXPECT_LT(bs.submissions, bs.cmds) << "no pass ever cut a multi-command batch";
}

// The byte cap cuts before overflow: with a cap smaller than one payload,
// every cut is a singleton and ships bare — submissions == cmds exactly,
// deterministically, no matter how the loop coalesces the burst.
TEST_F(BatchClusterTest, ByteCapForcesSingletonCuts) {
  TcpCluster cluster(3, clock_rsm_factory(3), kv_factory(),
                     opts(/*max_cmds=*/16, /*max_bytes=*/64));
  std::atomic<int> replies{0};
  cluster.set_reply_hook([&](ReplicaId, const Command&) { ++replies; });
  cluster.start();
  constexpr int kOps = 30;
  const std::string big(200, 'x');  // each payload alone exceeds the cap
  for (int i = 1; i <= kOps; ++i) {
    cluster.submit(0, kv_put(make_client_id(0, 0), i, "k", big));
  }
  ASSERT_TRUE(eventually([&] { return replies.load() == kOps; }));
  const NodeRuntime::BatchStats bs = cluster.batch_stats();
  cluster.stop();
  EXPECT_EQ(bs.cmds, static_cast<std::uint64_t>(kOps));
  // An oversized command still ships (alone); the cap bounds envelope size,
  // it never wedges or drops commands.
  EXPECT_EQ(bs.submissions, static_cast<std::uint64_t>(kOps));
}

// Replies inside and across batches preserve per-client submission order:
// members execute in envelope order, envelopes commit in timestamp order,
// and both fan replies out through the same ordered path.
TEST_F(BatchClusterTest, RepliesPreservePerClientOrderAcrossBatches) {
  TcpCluster cluster(3, clock_rsm_factory(3), kv_factory(),
                     opts(/*max_cmds=*/8, /*max_bytes=*/256 * 1024));
  std::mutex mu;
  std::vector<std::uint64_t> reply_seqs;
  std::vector<std::vector<std::uint64_t>> exec_seqs(3);
  cluster.set_reply_hook([&](ReplicaId, const Command& cmd) {
    std::lock_guard<std::mutex> lk(mu);
    reply_seqs.push_back(cmd.seq);
  });
  cluster.set_commit_hook([&](ReplicaId r, const Command& cmd, Timestamp, bool) {
    std::lock_guard<std::mutex> lk(mu);
    exec_seqs[r].push_back(cmd.seq);
  });
  cluster.start();
  constexpr int kOps = 120;
  for (int i = 1; i <= kOps; ++i) {
    cluster.submit(0, kv_put(make_client_id(0, 0), i, "k", std::to_string(i)));
  }
  ASSERT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lk(mu);
    return reply_seqs.size() == kOps && exec_seqs[1].size() == kOps;
  }));
  cluster.stop();
  std::lock_guard<std::mutex> lk(mu);
  for (std::size_t i = 1; i < reply_seqs.size(); ++i) {
    ASSERT_LT(reply_seqs[i - 1], reply_seqs[i])
        << "reply order broke at index " << i;
  }
  // The commit hook sees member commands (never envelopes), in the same
  // per-client order at every replica.
  for (ReplicaId r = 0; r < 3; ++r) {
    ASSERT_EQ(exec_seqs[r].size(), static_cast<std::size_t>(kOps));
    for (std::size_t i = 1; i < exec_seqs[r].size(); ++i) {
      ASSERT_LT(exec_seqs[r][i - 1], exec_seqs[r][i])
          << "replica " << r << " executed out of order at " << i;
    }
  }
}

// --- WAL replay and catch-up of envelope records ---------------------------

class DurableBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = std::filesystem::temp_directory_path() /
           ("crsm_batch_test_" + std::to_string(::getpid()) + "_" + name);
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  NodeConfig opts() const {
    NodeConfig o;
    o.storage.dir = dir_.string();
    o.max_batch_cmds = 16;
    return o;
  }
  TcpCluster::ProtocolFactory factory() const {
    ClockRsmOptions o;
    o.catchup_interval_us = 30'000;
    return clock_rsm_factory(3, o);
  }

  std::filesystem::path dir_;
};

// kill -9 mid-batch: the victim's WAL may end in a torn tail, but replay
// must parse cleanly, every committed record that is an envelope must split
// into its members (a torn envelope must never reach `committed`), and the
// restarted replica must catch up to the same state.
TEST_F(DurableBatchTest, KillMidBatchWalReplaysAndCatchesUp) {
  TcpCluster cluster(3, factory(), kv_factory(), opts());
  std::atomic<int> replies{0};
  cluster.set_reply_hook([&](ReplicaId, const Command&) { ++replies; });
  cluster.start();

  // Open-loop burst at two origins so the victim is mid-pipeline — batches
  // in flight, WAL appends racing the kill — when it dies.
  std::atomic<bool> stop_load{false};
  std::atomic<int> submitted{0};
  std::vector<std::thread> load;
  for (ReplicaId r = 0; r < 2; ++r) {
    load.emplace_back([&, r] {
      int seq = 0;
      while (!stop_load.load()) {
        ++seq;
        cluster.submit(r, kv_put(make_client_id(r, 0), seq, "k" + std::to_string(r),
                                 std::to_string(seq)));
        ++submitted;
        if (seq % 64 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  ASSERT_TRUE(eventually([&] { return cluster.executed(2) >= 100; }));
  cluster.kill(2);  // mid-burst, no goodbye

  // The dead node's WAL parses and replays cleanly despite the abrupt end.
  {
    FileLog wal((dir_ / "node-2" / "wal.log").string());
    const ReplayResult rr = replay_log(wal.records());
    EXPECT_FALSE(rr.committed.empty());
    std::size_t member_cmds = 0;
    for (std::size_t i = 0; i < rr.committed.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(rr.committed[i - 1].ts, rr.committed[i].ts);
      }
      if (is_batch(rr.committed[i].cmd)) {
        // A committed envelope is whole: split never throws, members intact.
        const std::vector<Command> members = split_batch(rr.committed[i].cmd);
        EXPECT_GE(members.size(), 2u);
        member_cmds += members.size();
      } else {
        ++member_cmds;
      }
    }
    // The victim had executed >= 100 member commands before the kill and
    // commit marks cover what executed.
    EXPECT_GE(member_cmds, 100u);
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  cluster.restart(2);
  stop_load = true;
  for (auto& t : load) t.join();

  // Every acknowledged command commits everywhere, the restarted replica
  // included, and states converge.
  ASSERT_TRUE(eventually([&] { return replies.load() >= submitted.load(); }));
  ASSERT_TRUE(eventually([&] {
    const std::uint64_t n = cluster.executed(0);
    return n > 0 && cluster.executed(1) == n && cluster.executed(2) == n;
  })) << "executed: " << cluster.executed(0) << "/" << cluster.executed(1)
      << "/" << cluster.executed(2);
  ASSERT_TRUE(eventually([&] {
    return cluster.node(0).state_digest() == cluster.node(2).state_digest() &&
           cluster.node(1).state_digest() == cluster.node(2).state_digest();
  }));
  cluster.stop();
}

// Batched commands survive a whole-cluster power cycle: every replica's WAL
// holds envelope records, every replica replays them (splitting at apply)
// and digests agree afterwards.
TEST_F(DurableBatchTest, WholeClusterRestartReplaysEnvelopeRecords) {
  TcpCluster cluster(3, factory(), kv_factory(), opts());
  std::atomic<int> replies{0};
  cluster.set_reply_hook([&](ReplicaId, const Command&) { ++replies; });
  cluster.start();
  constexpr int kOps = 60;
  for (int i = 1; i <= kOps; ++i) {
    cluster.submit(0, kv_put(make_client_id(0, 0), i, "k" + std::to_string(i % 7),
                             std::to_string(i)));
  }
  ASSERT_TRUE(eventually([&] {
    return replies.load() == kOps && cluster.executed(0) == kOps &&
           cluster.executed(1) == kOps && cluster.executed(2) == kOps;
  }));
  const std::uint64_t digest_before = cluster.node(0).state_digest();

  for (ReplicaId r = 0; r < 3; ++r) cluster.kill(r);
  for (ReplicaId r = 0; r < 3; ++r) cluster.restart(r);

  // Recovery replays the envelope WAL records through the same split path;
  // the rebuilt state must equal the pre-crash state at every replica.
  ASSERT_TRUE(eventually([&] {
    for (ReplicaId r = 0; r < 3; ++r) {
      if (cluster.node(r).state_digest() != digest_before) return false;
    }
    return true;
  }));
  cluster.stop();
}

}  // namespace
}  // namespace crsm
