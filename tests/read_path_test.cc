// The stability-based local read path (docs/ARCHITECTURE.md, "Linearizable
// local reads"): unit tests pin the serving rule at the message level —
// reads are held until every config peer's clock passes the read timestamp
// and every smaller-timestamp pending write has executed — and simulation
// tests cover the cross-replica guarantees: read-your-writes from any
// replica, reads held (not served stale) through catch-up and SUSPEND, scan
// atomicity under concurrent writes, and reads staying out of the
// replicated order entirely.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "clockrsm/clock_rsm.h"
#include "kv/kv_store.h"
#include "mock_env.h"
#include "test_util.h"

namespace crsm {
namespace {

using test::MockEnv;

constexpr ReplicaId kSelf = 0;
const std::vector<ReplicaId> kSpec = {0, 1, 2};

Command get_cmd(std::uint64_t seq, const std::string& key = "k") {
  return test::kv_get(7, seq, key);
}

Message clock_time(ReplicaId from, Tick clock_ts) {
  Message m;
  m.type = MsgType::kClockTime;
  m.from = from;
  m.clock_ts = clock_ts;
  return m;
}

Message prepare(ReplicaId from, Timestamp ts, std::uint64_t seq) {
  Message m;
  m.type = MsgType::kPrepare;
  m.from = from;
  m.ts = ts;
  m.cmd = test::kv_put(7, seq, "k", "w" + std::to_string(seq));
  return m;
}

Message prepare_ok(ReplicaId from, Timestamp ts, Tick clock_ts) {
  Message m;
  m.type = MsgType::kPrepareOk;
  m.from = from;
  m.ts = ts;
  m.clock_ts = clock_ts;
  return m;
}

struct Fixture {
  MockEnv env{kSelf};
  ClockRsmReplica replica;

  explicit Fixture(ClockRsmOptions opt = {.clocktime_enabled = false})
      : replica(env, kSpec, opt) {
    replica.start();
  }
};

// --- serving rule, message level -------------------------------------------

TEST(ReadPathUnit, ReadHeldUntilEveryPeerClockPassesIt) {
  Fixture f;
  f.env.set_clock(5000);
  f.replica.submit_read(get_cmd(1));
  EXPECT_EQ(f.replica.pending_read_count(), 1u);
  EXPECT_TRUE(f.env.delivered_reads.empty());
  EXPECT_EQ(f.replica.stats().reads_submitted, 1u);

  // One peer advancing is not enough: the read point is the minimum over
  // the whole config.
  f.replica.on_message(clock_time(1, 10'000));
  EXPECT_TRUE(f.env.delivered_reads.empty());

  f.replica.on_message(clock_time(2, 10'000));
  ASSERT_EQ(f.env.delivered_reads.size(), 1u);
  EXPECT_EQ(f.env.delivered_reads[0].cmd.seq, 1u);
  // The read timestamp came from this replica's clock, after 5000.
  EXPECT_GT(f.env.delivered_reads[0].read_ts.ticks, 5000u);
  EXPECT_EQ(f.env.delivered_reads[0].read_ts.origin, kSelf);
  EXPECT_EQ(f.replica.pending_read_count(), 0u);
  EXPECT_EQ(f.replica.stats().reads_served, 1u);
}

TEST(ReadPathUnit, ReadWaitsForSmallerTimestampPendingWrite) {
  Fixture f;
  f.env.set_clock(5000);
  f.replica.submit_read(get_cmd(1));  // read ts > 5000

  // A write with a smaller timestamp is in flight at this replica.
  const Timestamp wts{4000, 1};
  f.replica.on_message(prepare(1, wts, 1));
  f.replica.on_message(prepare_ok(0, wts, f.env.clock()));
  f.replica.on_message(prepare_ok(1, wts, 4500));

  // Peer clocks pass the read timestamp — but the pending smaller-ts write
  // has not committed yet, so serving now would miss it: the read stays
  // queued.
  f.replica.on_message(clock_time(1, 10'000));
  f.replica.on_message(clock_time(2, 4500));
  EXPECT_TRUE(f.env.delivered_reads.empty());
  EXPECT_EQ(f.env.delivered.size(), 1u);  // the write itself committed

  // With the write committed and r2 still at 4500 the read is held purely
  // by stability; push r2 past the read point and it serves — observing
  // the write.
  f.replica.on_message(clock_time(2, 10'000));
  ASSERT_EQ(f.env.delivered_reads.size(), 1u);
  EXPECT_GT(f.env.delivered_reads[0].read_ts.ticks,
            f.env.delivered[0].ts.ticks);
}

TEST(ReadPathUnit, SuspendedReplicaHoldsReads) {
  Fixture f;
  f.env.set_clock(5000);

  // A reconfigurer SUSPENDs us (epoch 1 > 0): the log freezes until the
  // decision arrives, and so must reads — the post-decision state may
  // include handed-over commands this replica has not seen commit.
  Message s;
  s.type = MsgType::kSuspend;
  s.epoch = 1;
  s.from = 1;
  f.replica.on_message(s);
  ASSERT_TRUE(f.replica.frozen());

  f.replica.submit_read(get_cmd(1));
  f.replica.on_message(clock_time(1, 50'000));
  f.replica.on_message(clock_time(2, 50'000));
  EXPECT_TRUE(f.env.delivered_reads.empty());
  EXPECT_EQ(f.replica.pending_read_count(), 1u);
}

TEST(ReadPathUnit, ReadTimestampMonotonicAcrossBackwardClockJump) {
  Fixture f;
  f.env.set_clock(9000);
  f.replica.submit_read(get_cmd(1));

  // NTP steps the clock back. The read timestamp must not step back with
  // it: a smaller rts could be "stable" immediately while a concurrent
  // write between the two timestamps is still in flight.
  f.env.set_clock(1000);
  f.replica.submit_read(get_cmd(2));

  f.replica.on_message(clock_time(1, 50'000));
  f.replica.on_message(clock_time(2, 50'000));
  ASSERT_EQ(f.env.delivered_reads.size(), 2u);
  EXPECT_GT(f.env.delivered_reads[0].read_ts.ticks, 9000u);
  EXPECT_GT(f.env.delivered_reads[1].read_ts.ticks,
            f.env.delivered_reads[0].read_ts.ticks);
}

// --- cross-replica guarantees, simulation level ----------------------------

TEST(ReadPathSim, ReadYourWritesFromAnyReplica) {
  SimWorldOptions o = test::world_opts(test::tri(10, 10, 10), 7);
  o.clock_skew_ms = 2.0;  // the guarantee must not depend on aligned clocks
  SimWorld w(o, clock_rsm_factory(3, ClockRsmOptions{}), test::kv_factory());
  std::string got = "<unserved>";
  bool read_issued = false;
  w.set_commit_hook([&](ReplicaId r, const Command&, Timestamp, bool local) {
    if (!local || r != 0 || read_issued) return;
    read_issued = true;
    // The write completed at replica 0; the same client immediately reads
    // at replica 1, which may not have executed the write yet. The read
    // must wait it out, never return the old value.
    w.submit_read(1, test::kv_get(2, 1, "x"));
  });
  w.set_read_hook(
      [&](ReplicaId, const Command&, Timestamp, std::string_view out) {
        got = std::string(out);
      });
  w.start();
  w.submit(0, test::kv_put(1, 1, "x", "mine"));
  w.sim().run_until(2'000'000);
  ASSERT_TRUE(read_issued);
  EXPECT_EQ(got, "mine");
}

TEST(ReadPathSim, ReadsDuringCatchupObservePostRecoveryState) {
  ClockRsmOptions o;
  SimWorld w(test::world_opts(test::tri(10, 10, 10)), clock_rsm_factory(3, o),
             test::kv_factory());
  std::string got = "<unserved>";
  w.set_read_hook(
      [&](ReplicaId, const Command&, Timestamp, std::string_view out) {
        got = std::string(out);
      });
  w.start();
  w.submit(0, test::kv_put(1, 1, "k", "v1"));
  w.sim().run_until(300'000);
  w.crash(2);
  w.submit(0, test::kv_put(1, 2, "k", "v2"));
  w.sim().run_until(600'000);

  w.restart(2);
  // Read at the recovering replica before catch-up completes: it must be
  // held through catch-up and answered from the caught-up state — v2, the
  // write that committed while the replica was down.
  w.submit_read(2, test::kv_get(9, 1, "k"));
  w.sim().run_until(3'000'000);
  EXPECT_EQ(got, "v2");
  EXPECT_EQ(w.reads_served(2), 1u);
}

TEST(ReadPathSim, ScanIsAnAtomicSnapshotUnderConcurrentWrites) {
  SimWorld w(test::world_opts(test::tri(5, 8, 12), 3), clock_rsm_factory(3, ClockRsmOptions{}),
             test::kv_factory());

  // One closed-loop writer alternates a=i, then (after a commits) b=i.
  // Every atomic snapshot therefore satisfies a == b or a == b + 1; a scan
  // that interleaved with the writes mid-apply would break it.
  constexpr std::uint64_t kRounds = 25;
  std::uint64_t next_seq = 1;
  auto issue = [&](std::uint64_t seq) {
    const std::uint64_t round = (seq + 1) / 2;
    const bool is_a = seq % 2 == 1;
    w.submit(0, test::kv_put(1, seq, is_a ? "a" : "b", std::to_string(round)));
  };
  w.set_commit_hook([&](ReplicaId r, const Command& cmd, Timestamp, bool local) {
    if (!local || r != 0 || cmd.client != 1 || cmd.seq != next_seq) return;
    if (++next_seq <= 2 * kRounds) issue(next_seq);
  });

  std::size_t scans_checked = 0;
  w.set_read_hook(
      [&](ReplicaId, const Command&, Timestamp, std::string_view out) {
        std::uint64_t a = 0, b = 0;
        for (const auto& [key, value] : KvRequest::decode_scan_result(out)) {
          if (key == "a") a = std::stoull(value);
          if (key == "b") b = std::stoull(value);
        }
        EXPECT_TRUE(a == b || a == b + 1)
            << "scan saw a=" << a << " b=" << b << ": not a snapshot";
        ++scans_checked;
      });

  w.start();
  issue(1);
  // Scans from the other replicas, staggered through the write run.
  for (int i = 0; i < 30; ++i) {
    const ReplicaId at = 1 + (i % 2);
    w.sim().after(50'000 + i * 40'000, [&w, at, i] {
      w.submit_read(at, test::kv_scan(50 + at, 1 + i, ""));
    });
  }
  w.sim().run_until(5'000'000);
  EXPECT_EQ(scans_checked, 30u);
  EXPECT_EQ(next_seq, 2 * kRounds + 1);  // writer finished
  test::expect_agreement(w);
}

TEST(ReadPathSim, ReadsStayOutOfTheReplicatedOrder) {
  SimWorld w(test::world_opts(test::tri(10, 10, 10)), clock_rsm_factory(3, ClockRsmOptions{}),
             test::kv_factory());
  int served = 0;
  w.set_read_hook([&](ReplicaId, const Command&, Timestamp, std::string_view) {
    ++served;
  });
  w.start();
  w.submit(0, test::kv_put(1, 1, "k", "v"));
  w.sim().run_until(300'000);
  for (ReplicaId r = 0; r < 3; ++r) {
    w.submit_read(r, test::kv_get(10 + r, 1, "k"));
  }
  w.sim().run_until(600'000);
  EXPECT_EQ(served, 3);
  for (ReplicaId r = 0; r < 3; ++r) {
    // Execution traces hold the write only: reads are not replicated ops.
    EXPECT_EQ(w.execution(r).size(), 1u) << "replica " << r;
    EXPECT_EQ(w.reads_served(r), 1u) << "replica " << r;
  }
  test::expect_agreement(w);
}

}  // namespace
}  // namespace crsm
