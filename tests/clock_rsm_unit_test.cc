// Message-level unit tests for ClockRsmReplica using a scripted environment:
// exact quorum boundaries, out-of-order deliveries, duplicate and stale
// messages, epoch fencing, and the line-8 clock wait.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string_view>

#include "clockrsm/clock_rsm.h"
#include "mock_env.h"
#include "storage/replica_storage.h"

namespace crsm {
namespace {

using test::MockEnv;

constexpr ReplicaId kSelf = 0;
const std::vector<ReplicaId> kSpec = {0, 1, 2};

Command cmd(std::uint64_t seq) {
  Command c;
  c.client = 7;
  c.seq = seq;
  c.payload = "p";
  return c;
}

Message prepare(ReplicaId from, Timestamp ts, std::uint64_t seq) {
  Message m;
  m.type = MsgType::kPrepare;
  m.from = from;
  m.ts = ts;
  m.cmd = cmd(seq);
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

Message clock_time(ReplicaId from, Tick clock_ts) {
  Message m;
  m.type = MsgType::kClockTime;
  m.from = from;
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

TEST(ClockRsmUnit, SubmitBroadcastsPrepareToWholeConfig) {
  Fixture f;
  f.replica.submit(cmd(1));
  const auto prepares = f.env.sent_of(MsgType::kPrepare);
  ASSERT_EQ(prepares.size(), 3u);  // includes self
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(prepares[i].to, kSpec[i]);
    EXPECT_EQ(prepares[i].msg.ts.origin, kSelf);
    EXPECT_EQ(prepares[i].msg.cmd, cmd(1));
  }
}

TEST(ClockRsmUnit, SubmitTimestampsStrictlyIncrease) {
  Fixture f;
  f.replica.submit(cmd(1));
  f.replica.submit(cmd(2));
  const auto prepares = f.env.sent_of(MsgType::kPrepare);
  ASSERT_EQ(prepares.size(), 6u);
  EXPECT_LT(prepares[0].msg.ts, prepares[3].msg.ts);
}

TEST(ClockRsmUnit, PrepareIsLoggedAndAckedToAll) {
  Fixture f;
  f.env.set_clock(5000);
  f.replica.on_message(prepare(1, Timestamp{4000, 1}, 1));
  ASSERT_EQ(f.env.log().size(), 1u);
  EXPECT_EQ(f.env.log().records().to_vector()[0].type, LogType::kPrepare);
  const auto oks = f.env.sent_of(MsgType::kPrepareOk);
  ASSERT_EQ(oks.size(), 3u);  // broadcast, including self
  EXPECT_EQ(oks[0].msg.ts, (Timestamp{4000, 1}));
  EXPECT_GT(oks[0].msg.clock_ts, 4000u);  // ack clock exceeds the command ts
}

TEST(ClockRsmUnit, AckWaitsUntilClockPassesTimestamp) {
  // Line 8: the sender's clock runs ahead of ours; the ack is deferred.
  Fixture f;
  f.env.set_clock(1000);
  f.replica.on_message(prepare(1, Timestamp{9000, 1}, 1));
  EXPECT_EQ(f.env.count_sent(MsgType::kPrepareOk), 0u);
  ASSERT_EQ(f.env.timers.size(), 1u);
  EXPECT_EQ(f.replica.stats().clock_waits, 1u);

  f.env.set_clock(9002);
  f.env.fire_due_timers();
  const auto oks = f.env.sent_of(MsgType::kPrepareOk);
  ASSERT_EQ(oks.size(), 3u);
  EXPECT_GT(oks[0].msg.clock_ts, 9000u);
}

TEST(ClockRsmUnit, CommitNeedsMajorityStableAndPrefix) {
  Fixture f;
  f.env.set_clock(5000);
  const Timestamp ts{4000, 1};
  f.replica.on_message(prepare(1, ts, 1));
  // Our own ack (loopback) would count; simulate it plus r1's ack.
  f.replica.on_message(prepare_ok(0, ts, f.env.clock()));
  f.replica.on_message(prepare_ok(1, ts, 4500));
  // Majority reached (2 of 3) but r2's latest time is unknown: not stable.
  EXPECT_TRUE(f.env.delivered.empty());
  // r2 reports a clock beyond ts: now stable, and nothing smaller pending.
  f.replica.on_message(clock_time(2, 4600));
  ASSERT_EQ(f.env.delivered.size(), 1u);
  EXPECT_EQ(f.env.delivered[0].ts, ts);
  EXPECT_FALSE(f.env.delivered[0].local_origin);
  // Commit mark appended after the prepare.
  ASSERT_EQ(f.env.log().size(), 2u);
  EXPECT_EQ(f.env.log().records().to_vector()[1].type, LogType::kCommit);
}

TEST(ClockRsmUnit, StableOrderBlocksOnLaggingReplica) {
  Fixture f;
  f.env.set_clock(5000);
  const Timestamp ts{4000, 1};
  f.replica.on_message(prepare(1, ts, 1));
  f.replica.on_message(prepare_ok(0, ts, f.env.clock()));
  f.replica.on_message(prepare_ok(1, ts, 4500));
  f.replica.on_message(clock_time(2, 3999));  // still below ts
  EXPECT_TRUE(f.env.delivered.empty());
  f.replica.on_message(clock_time(2, 4000));  // equal is enough: senders are
  ASSERT_EQ(f.env.delivered.size(), 1u);      // strictly increasing
}

TEST(ClockRsmUnit, PrefixReplicationBlocksLaterCommand) {
  // A later-timestamped command with full acks must wait for an earlier
  // pending command (condition 3).
  Fixture f;
  f.env.set_clock(9000);
  const Timestamp early{5000, 1};
  const Timestamp late{6000, 2};
  f.replica.on_message(prepare(1, early, 1));
  f.replica.on_message(prepare(2, late, 2));
  // Acks for the late command only.
  for (ReplicaId r = 0; r < 3; ++r) {
    f.replica.on_message(prepare_ok(r, late, 9500 + r));
  }
  EXPECT_TRUE(f.env.delivered.empty()) << "must not skip the earlier command";
  // Now the early command gets its majority: both commit, in order.
  f.replica.on_message(prepare_ok(1, early, 9600));
  f.replica.on_message(prepare_ok(0, early, 9601));
  ASSERT_EQ(f.env.delivered.size(), 2u);
  EXPECT_EQ(f.env.delivered[0].ts, early);
  EXPECT_EQ(f.env.delivered[1].ts, late);
}

TEST(ClockRsmUnit, PrepareOkBeforePrepareIsCounted) {
  // Acks can outrun the prepare on a different link.
  Fixture f;
  f.env.set_clock(9000);
  const Timestamp ts{5000, 1};
  f.replica.on_message(prepare_ok(2, ts, 8000));
  f.replica.on_message(prepare_ok(1, ts, 8100));
  EXPECT_TRUE(f.env.delivered.empty());  // no payload yet
  f.replica.on_message(prepare(1, ts, 1));
  // Loop back our own broadcast ack (the environment normally does this).
  const auto own_ok = f.env.sent_of(MsgType::kPrepareOk);
  ASSERT_FALSE(own_ok.empty());
  f.replica.on_message(own_ok[0].msg);
  ASSERT_EQ(f.env.delivered.size(), 1u);  // counted acks + stable via clocks
}

TEST(ClockRsmUnit, OlderEpochMessagesAreDropped) {
  Fixture f;
  f.env.set_clock(5000);
  Message m = prepare(1, Timestamp{4000, 1}, 1);
  m.epoch = 0;  // matches
  f.replica.on_message(m);
  EXPECT_EQ(f.replica.pending_count(), 1u);

  Message newer = prepare(1, Timestamp{4100, 1}, 2);
  newer.epoch = 5;  // from the future: dropped
  f.replica.on_message(newer);
  EXPECT_EQ(f.replica.pending_count(), 1u);
}

TEST(ClockRsmUnit, DuplicateSuspendRepliesToEachRequester) {
  Fixture f;
  Message s;
  s.type = MsgType::kSuspend;
  s.from = 1;
  s.epoch = 1;
  s.ts = kZeroTimestamp;
  f.replica.on_message(s);
  EXPECT_TRUE(f.replica.frozen());
  s.from = 2;
  f.replica.on_message(s);
  EXPECT_EQ(f.env.count_sent(MsgType::kSuspendOk), 2u);
}

TEST(ClockRsmUnit, FrozenReplicaStopsPreparesAndRequests) {
  Fixture f;
  Message s;
  s.type = MsgType::kSuspend;
  s.from = 1;
  s.epoch = 1;
  f.replica.on_message(s);
  ASSERT_TRUE(f.replica.frozen());
  f.env.clear_sent();

  f.env.set_clock(5000);
  f.replica.on_message(prepare(1, Timestamp{4000, 1}, 1));
  EXPECT_EQ(f.replica.pending_count(), 0u);
  EXPECT_EQ(f.env.count_sent(MsgType::kPrepareOk), 0u);

  f.replica.submit(cmd(9));  // deferred, not broadcast
  EXPECT_EQ(f.env.count_sent(MsgType::kPrepare), 0u);
}

TEST(ClockRsmUnit, SuspendOkCarriesOnlyEntriesAboveCts) {
  Fixture f;
  f.env.set_clock(5000);
  // Commit one command fully.
  const Timestamp done{4000, 1};
  f.replica.on_message(prepare(1, done, 1));
  for (ReplicaId r = 0; r < 3; ++r) {
    f.replica.on_message(prepare_ok(r, done, 6000 + r));
  }
  ASSERT_EQ(f.env.delivered.size(), 1u);
  // Log an uncommitted one above it.
  f.env.set_clock(7000);
  f.replica.on_message(prepare(2, Timestamp{6500, 2}, 2));

  Message s;
  s.type = MsgType::kSuspend;
  s.from = 1;
  s.epoch = 1;
  s.ts = done;  // requester already has everything up to `done`
  f.replica.on_message(s);
  const auto oks = f.env.sent_of(MsgType::kSuspendOk);
  ASSERT_EQ(oks.size(), 1u);
  ASSERT_EQ(oks[0].msg.records.size(), 1u);
  EXPECT_EQ(oks[0].msg.records[0].ts, (Timestamp{6500, 2}));
}

TEST(ClockRsmUnit, RetrieveCmdsReturnsCommittedRequestedRangeOnly) {
  // The fetcher executes everything a RETRIEVEREPLY carries as committed,
  // so the server must hand out only committed (marked) prepares — an
  // uncommitted in-range prepare may be an orphan no replica ever executes
  // — and must report its commit bound so the fetcher can tell a complete
  // range from a partial one.
  Fixture f;
  f.env.set_clock(5000);
  f.replica.on_message(prepare(1, Timestamp{1000, 1}, 1));
  f.replica.on_message(prepare(1, Timestamp{2000, 1}, 2));
  for (ReplicaId r = 0; r < 3; ++r) {
    f.replica.on_message(prepare_ok(r, Timestamp{1000, 1}, 4000 + r));
  }
  for (ReplicaId r = 0; r < 3; ++r) {
    f.replica.on_message(prepare_ok(r, Timestamp{2000, 1}, 4100 + r));
  }
  ASSERT_EQ(f.env.delivered.size(), 2u);  // both committed here
  f.replica.on_message(prepare(2, Timestamp{2200, 2}, 3));  // uncommitted
  f.env.clear_sent();

  Message r;
  r.type = MsgType::kRetrieveCmds;
  r.from = 2;
  r.epoch = 1;
  r.ts = Timestamp{1000, 1};  // from (exclusive)
  r.clock_ts = 2500;          // to.ticks
  r.a = 9;                    // to.origin
  f.replica.on_message(r);
  const auto replies = f.env.sent_of(MsgType::kRetrieveReply);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].msg.records.size(), 1u);
  EXPECT_EQ(replies[0].msg.records[0].ts, (Timestamp{2000, 1}));
  // The reply advertises the server's commit bound.
  EXPECT_EQ(replies[0].msg.ts, (Timestamp{2000, 1}));
  EXPECT_EQ(replies[0].to, 2u);
}

TEST(ClockRsmUnit, CatchupRequestAnsweredOncePerIntervalPerRequester) {
  // A restarted replica polls every catchup interval; polls that queued
  // while its links were down arrive back to back, and each reply may carry
  // the whole log. Identical requests within one interval get one reply; a
  // repeat after the interval (the first reply may have died with a
  // connection) and any request that moved on are answered again.
  Fixture f;
  f.env.set_clock(5000);
  f.replica.on_message(prepare(1, Timestamp{1000, 1}, 1));
  f.env.clear_sent();

  Message req;
  req.type = MsgType::kCatchupReq;
  req.from = 2;
  req.epoch = 1;
  req.ts = kZeroTimestamp;
  for (int i = 0; i < 10; ++i) f.replica.on_message(req);
  auto replies = f.env.sent_of(MsgType::kCatchupReply);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].to, 2u);
  EXPECT_EQ(replies[0].msg.records.size(), 1u);

  // Another requester is tracked on its own.
  Message other = req;
  other.from = 1;
  f.replica.on_message(other);
  EXPECT_EQ(f.env.count_sent(MsgType::kCatchupReply), 2u);

  // A request whose commit bound advanced is a new request.
  Message advanced = req;
  advanced.ts = Timestamp{500, 1};
  f.replica.on_message(advanced);
  EXPECT_EQ(f.env.count_sent(MsgType::kCatchupReply), 3u);

  // The same request once a full interval has passed is answered again.
  f.replica.on_message(advanced);
  EXPECT_EQ(f.env.count_sent(MsgType::kCatchupReply), 3u);
  f.env.set_clock(f.env.clock() + ClockRsmOptions{}.catchup_interval_us);
  f.replica.on_message(advanced);
  replies = f.env.sent_of(MsgType::kCatchupReply);
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[3].to, 2u);
}

TEST(ClockRsmUnit, DeliversLocalOriginOnlyForOwnCommands) {
  Fixture f;
  f.env.set_clock(100);
  f.replica.submit(cmd(1));
  const Timestamp my_ts = f.env.sent_of(MsgType::kPrepare)[0].msg.ts;
  // Loop back our own prepare, then acks from everyone.
  f.replica.on_message(prepare(0, my_ts, 1));
  for (ReplicaId r = 0; r < 3; ++r) {
    f.replica.on_message(prepare_ok(r, my_ts, my_ts.ticks + 10 + r));
  }
  ASSERT_EQ(f.env.delivered.size(), 1u);
  EXPECT_TRUE(f.env.delivered[0].local_origin);
}

TEST(ClockRsmUnit, DuplicatePrepareOkFromSameReplicaStillNeedsQuorum) {
  // NOTE: Algorithm 1 increments RepCounter per PREPAREOK; with FIFO
  // channels and no retransmission a replica never acks twice, so the
  // counter equals the number of distinct ack senders. This test documents
  // the environment contract rather than defending against violations.
  Fixture f;
  f.env.set_clock(5000);
  const Timestamp ts{4000, 1};
  f.replica.on_message(prepare(1, ts, 1));
  f.replica.on_message(prepare_ok(1, ts, 4500));
  EXPECT_TRUE(f.env.delivered.empty());  // one ack is not a majority of 3
}

TEST(ClockRsmUnit, ConstructorValidatesArguments) {
  MockEnv env(kSelf);
  EXPECT_THROW(ClockRsmReplica(env, {}), std::invalid_argument);
  EXPECT_THROW(ClockRsmReplica(env, {1, 2}), std::invalid_argument);  // self absent
  ClockRsmOptions bad;
  bad.reconfig_enabled = true;
  bad.clocktime_enabled = false;
  EXPECT_THROW(ClockRsmReplica(env, kSpec, bad), std::invalid_argument);
}

TEST(ClockRsmUnit, SpecWiderThanAckBitsetIsRejected) {
  MockEnv env(kSelf);
  std::vector<ReplicaId> spec(ClockRsmReplica::kMaxReplicas + 1);
  for (std::size_t i = 0; i < spec.size(); ++i) spec[i] = static_cast<ReplicaId>(i);
  EXPECT_THROW(ClockRsmReplica(env, spec), std::invalid_argument);
  spec.pop_back();
  EXPECT_NO_THROW(ClockRsmReplica(env, spec));
}

TEST(ClockRsmUnit, WidestSpecCountsDistinctAckersUpToTheLastSlot) {
  // 64 replicas with sparse ids: acks are bits indexed by spec position, so
  // the last position (bit 63) must count, and repeats must not.
  MockEnv env(kSelf);
  std::vector<ReplicaId> spec;
  for (ReplicaId i = 0; i < ClockRsmReplica::kMaxReplicas; ++i) spec.push_back(i * 10);
  ClockRsmReplica replica(env, spec, {.clocktime_enabled = false});
  replica.start();
  env.set_clock(9000);
  const Timestamp ts{5000, 10};
  replica.on_message(prepare(10, ts, 1));
  for (ReplicaId r : spec) replica.on_message(clock_time(r, 8000));
  const std::size_t quorum = majority(spec.size());  // 33
  // quorum - 1 distinct ackers from the top of the spec, the last one many
  // times over: still one short.
  for (std::size_t i = spec.size() - (quorum - 1); i < spec.size(); ++i) {
    replica.on_message(prepare_ok(spec[i], ts, 8000));
  }
  for (int k = 0; k < 5; ++k) replica.on_message(prepare_ok(spec.back(), ts, 8000));
  EXPECT_TRUE(env.delivered.empty());
  replica.on_message(prepare_ok(spec.front(), ts, 8000));
  ASSERT_EQ(env.delivered.size(), 1u);
  EXPECT_EQ(env.delivered[0].ts, ts);
}

TEST(ClockRsmUnit, DecisionNamingReplicaOutsideSpecIsIgnored) {
  Fixture f;
  ReconfigDecision dec;
  dec.config = {0, 1, 7};  // 7 is not in the specification
  Message m;
  m.type = MsgType::kConsDecide;
  m.from = 1;
  m.epoch = 1;
  m.blob = dec.encode();
  f.replica.on_message(m);
  EXPECT_EQ(f.replica.epoch(), 0u);
  EXPECT_EQ(f.replica.config(), kSpec);
}

TEST(ClockRsmUnit, ClockTimeTimerBroadcastsWhenIdle) {
  ClockRsmOptions opt;
  opt.clocktime_enabled = true;
  opt.clocktime_delta_us = 100;
  MockEnv env(kSelf);
  ClockRsmReplica replica(env, kSpec, opt);
  replica.start();
  ASSERT_FALSE(env.timers.empty());
  env.set_clock(env.clock() + 10'000);
  env.fire_due_timers();
  EXPECT_GE(env.count_sent(MsgType::kClockTime), 3u);  // broadcast to config
}

// --- pending runs and the early-ack stash --------------------------------

// A replica recovering from `log` with catch-up on: start() replays the log
// and sends its CATCHUPREQ.
struct Recovering {
  MockEnv env{kSelf};
  std::unique_ptr<ClockRsmReplica> replica;

  explicit Recovering(const std::vector<LogRecord>& log) {
    for (const LogRecord& r : log) env.log().append(r);
    ClockRsmOptions opt{.clocktime_enabled = false};
    opt.catchup_on_recovery = true;
    replica = std::make_unique<ClockRsmReplica>(env, kSpec, opt);
    replica->start();
  }
};

Message catchup_reply(ReplicaId from, Timestamp bound,
                      const std::vector<Timestamp>& prepares) {
  Message m;
  m.type = MsgType::kCatchupReply;
  m.from = from;
  m.ts = bound;
  for (const Timestamp& ts : prepares) {
    m.records.push_back(LogRecord::prepare(ts, cmd(ts.ticks)));
  }
  return m;
}

std::vector<Timestamp> delivered_ts(const MockEnv& env) {
  std::vector<Timestamp> out;
  for (const auto& d : env.delivered) out.push_back(d.ts);
  return out;
}

TEST(ClockRsmUnit, EarlyAcksFromAThirdReplicaCountForTwoOrigins) {
  // Each origin's PREPARE is beaten by the other peer's PREPAREOK (a
  // two-hop path can be faster than the direct link).
  Fixture f;
  f.env.set_clock(9000);
  const Timestamp a{5000, 1};
  const Timestamp b{5001, 2};
  f.replica.on_message(prepare_ok(2, a, 8000));
  f.replica.on_message(prepare_ok(1, b, 8100));
  EXPECT_EQ(f.replica.early_ack_count(), 2u);
  f.replica.on_message(prepare(2, b, 2));
  f.replica.on_message(prepare(1, a, 1));
  EXPECT_EQ(f.replica.early_ack_count(), 0u);  // both merged on staging
  EXPECT_EQ(f.replica.pending_count(), 2u);
  EXPECT_TRUE(f.env.delivered.empty());
  // Our own acks make each a majority only together with the early one.
  for (const auto& s : f.env.sent_of(MsgType::kPrepareOk)) {
    if (s.to == kSelf) f.replica.on_message(s.msg);
  }
  EXPECT_EQ(delivered_ts(f.env), (std::vector<Timestamp>{a, b}));
  EXPECT_EQ(f.replica.pending_count(), 0u);
}

TEST(ClockRsmUnit, DuplicatePrepareLeavesTheEntryAsItWas) {
  Fixture f;
  f.env.set_clock(9000);
  const Timestamp ts{5000, 1};
  f.replica.on_message(prepare(1, ts, 1));
  f.replica.on_message(prepare_ok(1, ts, 8000));
  f.replica.on_message(prepare(1, ts, 2));  // same timestamp, other command
  EXPECT_EQ(f.replica.pending_count(), 1u);
  f.replica.on_message(prepare_ok(2, ts, 8000));
  for (const auto& s : f.env.sent_of(MsgType::kPrepareOk)) {
    if (s.to == kSelf) f.replica.on_message(s.msg);
  }
  ASSERT_EQ(f.env.delivered.size(), 1u);
  EXPECT_EQ(f.env.delivered[0].cmd, cmd(1));  // the first PREPARE's command
  EXPECT_EQ(f.replica.pending_count(), 0u);
}

TEST(ClockRsmUnit, CatchupStagesBelowARunsTailInOrder) {
  // A PREPARE from replica 1 reaches the recovering replica before the
  // catch-up replies, which carry replica 1's older open PREPAREs: they are
  // staged below the run's tail and commit before it.
  const Timestamp bound{100, 1};
  Recovering r({LogRecord::prepare(bound, cmd(100)), LogRecord::commit(bound)});
  ASSERT_TRUE(r.replica->catching_up());
  r.env.set_clock(9000);
  const Timestamp t300{300, 1}, t400{400, 1}, t500{500, 1};
  r.replica->on_message(prepare(1, t500, 500));
  r.replica->on_message(catchup_reply(2, bound, {t400, t300}));
  r.replica->on_message(catchup_reply(1, bound, {t300, t400, t500}));
  EXPECT_FALSE(r.replica->catching_up());
  EXPECT_EQ(r.replica->pending_count(), 3u);
  for (ReplicaId p : kSpec) r.replica->on_message(clock_time(p, 8000));
  for (const auto& s : r.env.sent_of(MsgType::kPrepareOk)) {
    if (s.to == kSelf) r.replica->on_message(s.msg);
  }
  // The replayed prefix, then the run in timestamp order.
  EXPECT_EQ(delivered_ts(r.env), (std::vector<Timestamp>{bound, t300, t400, t500}));
  EXPECT_EQ(r.replica->pending_count(), 0u);
}

TEST(ClockRsmUnit, SupersededHeadIsDroppedNotExecuted) {
  // An entry a catch-up commit passed (it never reached the peers' logs)
  // sits at its run's head below the commit bound: it is dropped.
  const Timestamp base{100, 1};
  Recovering r({LogRecord::prepare(base, cmd(100)), LogRecord::commit(base)});
  r.env.set_clock(9000);
  const Timestamp stale{300, 1};
  const Timestamp committed{400, 2};
  r.replica->on_message(prepare(1, stale, 300));
  EXPECT_EQ(r.replica->pending_count(), 1u);
  r.replica->on_message(catchup_reply(2, committed, {committed}));
  r.replica->on_message(catchup_reply(1, committed, {committed}));
  EXPECT_FALSE(r.replica->catching_up());
  EXPECT_EQ(r.replica->last_commit_ts(), committed);
  EXPECT_EQ(r.replica->pending_count(), 0u);
  EXPECT_EQ(delivered_ts(r.env), (std::vector<Timestamp>{base, committed}));
}

TEST(ClockRsmUnit, EarlyAckIsPrunedOnceCommitsPassIt) {
  Fixture f;
  f.env.set_clock(9000);
  f.replica.on_message(prepare_ok(1, Timestamp{150, 2}, 8000));  // PREPARE lost
  EXPECT_EQ(f.replica.early_ack_count(), 1u);
  const Timestamp ts{200, 1};
  f.replica.on_message(prepare(1, ts, 1));
  f.replica.on_message(prepare_ok(1, ts, 8000));
  EXPECT_EQ(f.replica.early_ack_count(), 1u);  // not passed yet
  f.replica.on_message(prepare_ok(2, ts, 8000));
  for (const auto& s : f.env.sent_of(MsgType::kPrepareOk)) {
    if (s.to == kSelf) f.replica.on_message(s.msg);
  }
  ASSERT_EQ(delivered_ts(f.env), (std::vector<Timestamp>{ts}));
  EXPECT_EQ(f.replica.early_ack_count(), 0u);
}

TEST(ClockRsmUnit, CatchupReplyCarriesEachWantedTimestampOnceInOrder) {
  // The reply holds every PREPARE above the request: committed ones below
  // our commit bound (stale uncommitted ones are not), open ones above it,
  // each once however often the log holds it.
  const Timestamp c50{50, 1}, c100{100, 1}, stale{200, 2}, c300{300, 1};
  const Timestamp open400{400, 2}, open500{500, 2};
  std::vector<LogRecord> log = {
      LogRecord::prepare(c50, cmd(50)),   LogRecord::commit(c50),
      LogRecord::prepare(c100, cmd(100)), LogRecord::commit(c100),
      LogRecord::prepare(stale, cmd(200)), LogRecord::prepare(c300, cmd(300)),
      LogRecord::prepare(c300, cmd(300)), LogRecord::commit(c300),
      LogRecord::prepare(open500, cmd(500)), LogRecord::prepare(open400, cmd(400)),
      LogRecord::prepare(open400, cmd(400))};
  MockEnv env(kSelf);
  for (const LogRecord& r : log) env.log().append(r);
  ClockRsmReplica replica(env, kSpec, {.clocktime_enabled = false});
  replica.start();
  ASSERT_EQ(replica.last_commit_ts(), c300);

  Message req;
  req.type = MsgType::kCatchupReq;
  req.from = 2;
  req.ts = Timestamp{60, 0};
  replica.on_message(req);
  const auto replies = env.sent_of(MsgType::kCatchupReply);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].msg.ts, c300);
  std::vector<Timestamp> got;
  for (const LogRecord& r : replies[0].msg.records) got.push_back(r.ts);
  // Same set as a reply built in log order with a seen-set.
  EXPECT_EQ(std::set<Timestamp>(got.begin(), got.end()),
            (std::set<Timestamp>{c100, c300, open400, open500}));
  EXPECT_EQ(got, (std::vector<Timestamp>{c100, c300, open400, open500}));
  EXPECT_EQ(replies[0].msg.records[2].cmd, cmd(400));
}

// While a replica catches up, its pending runs hold every logged PREPARE
// above its commit bound: that is how a catch-up reply tells what is
// already logged without a set of the whole log.
void expect_logged_prepares_pending(const ClockRsmReplica& replica,
                                    const CommandLog& log, const std::string& step) {
  SCOPED_TRACE(step);
  const LogMirror& records = log.records();
  for (auto it = records.begin(); it != records.end(); ++it) {
    if (it.type() != LogType::kPrepare || it.ts() <= replica.last_commit_ts()) continue;
    EXPECT_TRUE(replica.is_pending(it.ts())) << it.ts().to_string();
  }
}

TEST(ClockRsmUnit, CatchupKeepsEveryLoggedPrepareAboveTheCommitBoundPending) {
  const Timestamp base{100, 1};
  const Timestamp own_open{160, 0}, peer_open{150, 2};
  Recovering r({LogRecord::prepare(base, cmd(100)), LogRecord::commit(base),
                LogRecord::prepare(peer_open, cmd(150)),
                LogRecord::prepare(own_open, cmd(160))});
  ASSERT_TRUE(r.replica->catching_up());
  r.env.set_clock(9000);
  expect_logged_prepares_pending(*r.replica, r.env.log(), "replayed");
  EXPECT_EQ(r.replica->pending_count(), 2u);

  r.replica->on_message(prepare(1, Timestamp{300, 1}, 300));
  expect_logged_prepares_pending(*r.replica, r.env.log(), "a new PREPARE");

  // Replica 2 committed 150 (logged here) and 180 (not) and holds 250 and
  // 300 open.
  const Timestamp bound{180, 1};
  r.replica->on_message(catchup_reply(
      2, bound, {peer_open, Timestamp{180, 1}, Timestamp{250, 2}, Timestamp{300, 1}}));
  ASSERT_TRUE(r.replica->catching_up());
  EXPECT_EQ(r.replica->last_commit_ts(), (Timestamp{180, 1}));
  expect_logged_prepares_pending(*r.replica, r.env.log(), "first reply");

  // Replica 1's reply arrives out of order. 160 is ours alone: with every
  // peer replied it is an orphan, dropped from the runs and the log.
  r.replica->on_message(catchup_reply(
      1, bound, {Timestamp{400, 1}, Timestamp{180, 1}, Timestamp{350, 2}}));
  expect_logged_prepares_pending(*r.replica, r.env.log(), "unsorted reply");
  EXPECT_FALSE(r.replica->catching_up());
  // Each PREPARE was logged once: the replayed 100 and 150, then 180, 250,
  // 350 and 400 from the replies, and 300 from its own PREPARE.
  std::size_t prepares = 0;
  for (const LogRecord& rec : r.env.log().records()) {
    prepares += rec.type == LogType::kPrepare ? 1 : 0;
  }
  EXPECT_EQ(prepares, 7u);
  EXPECT_EQ(delivered_ts(r.env),
            (std::vector<Timestamp>{base, peer_open, Timestamp{180, 1}}));
}

// A state machine that folds every command into a digest.
class DigestMachine final : public StateMachine {
 public:
  std::string apply(const Command& c) override {
    digest_ = digest_ * 1'000'003 + std::hash<std::string_view>{}(c.payload.view());
    return {};
  }
  [[nodiscard]] std::uint64_t state_digest() const override { return digest_; }
  [[nodiscard]] std::string snapshot() const override { return std::to_string(digest_); }
  void restore(const std::string& snap) override { digest_ = std::stoull(snap); }

 private:
  std::uint64_t digest_ = 0;
};

// An environment that delivers like the runtimes do: apply, a commit hook,
// then the checkpoint decision, which here truncates the log on every
// commit.
class CheckpointEveryCommitEnv final : public ProtocolEnv {
 public:
  [[nodiscard]] ReplicaId self() const override { return kSelf; }
  void send(ReplicaId, Message) override {}
  [[nodiscard]] Tick clock_now() override { return ++clock_; }
  void schedule_after(Tick, std::function<void()>) override {}
  [[nodiscard]] CommandLog& log() override { return storage_.log(); }
  void deliver(const Command& c, Timestamp ts, bool) override {
    (void)sm_.apply(c);
    retained.push_back(c);  // the commit hook keeps its own copy
    storage_.note_commit(sm_, ts, retained.size());
    // The truncation just flagged this command's record dead; its chunk
    // must outlive the delivery.
    payloads_seen.push_back(c.payload.str());
  }

  std::vector<Command> retained;
  std::vector<std::string> payloads_seen;
  std::uint64_t checkpoints() const { return storage_.stats().checkpoints; }

 private:
  static StorageOptions every_commit() {
    StorageOptions opt;
    opt.checkpoint_every = 1;
    return opt;
  }

  Tick clock_ = 1'000'000'000;
  DigestMachine sm_;
  ReplicaStorage storage_{every_commit()};
};

TEST(ClockRsmUnit, CheckpointTruncationDuringDeliveryKeepsTheCommandAlive) {
  // Every commit truncates the log up to the command being delivered, so
  // the chunk its view points into is emptied mid-delivery. Run under
  // ASan, a free before maybe_commit returns is a use-after-free here.
  CheckpointEveryCommitEnv env;
  ClockRsmReplica replica(env, kSpec, {.clocktime_enabled = false});
  replica.start();
  constexpr std::uint64_t kCommands = 50;
  for (std::uint64_t i = 1; i <= kCommands; ++i) {
    const Timestamp ts{i * 10, 1};
    Message p = prepare(1, ts, i);
    p.cmd.payload = std::string(100 + i, static_cast<char>('a' + i % 26));
    replica.on_message(p);
    replica.on_message(prepare_ok(1, ts, ts.ticks + 1));
    replica.on_message(prepare_ok(2, ts, ts.ticks + 1));
    replica.on_message(clock_time(0, ts.ticks + 1));
  }
  ASSERT_EQ(env.retained.size(), kCommands);
  EXPECT_EQ(env.checkpoints(), kCommands);
  for (std::uint64_t i = 1; i <= kCommands; ++i) {
    const std::string want(100 + i, static_cast<char>('a' + i % 26));
    EXPECT_EQ(env.retained[i - 1].payload, want);
    EXPECT_FALSE(env.retained[i - 1].payload.is_view());
    EXPECT_EQ(env.payloads_seen[i - 1], want);
  }
  EXPECT_TRUE(env.log().records().empty());
}

// A protocol environment that keeps nothing but its log: no sent
// messages, so the heap a replica grows is its soft state plus the log.
class NullEnv final : public ProtocolEnv {
 public:
  [[nodiscard]] ReplicaId self() const override { return kSelf; }
  void send(ReplicaId, Message) override {}
  [[nodiscard]] Tick clock_now() override { return ++clock_; }
  void schedule_after(Tick, std::function<void()>) override {}
  [[nodiscard]] CommandLog& log() override { return log_; }
  void deliver(const Command&, Timestamp, bool) override {}

 private:
  Tick clock_ = 1'000'000'000;
  MemLog log_;
};

std::size_t heap_in_use() {
  const struct mallinfo2 mi = ::mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CRSM_SANITIZED_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CRSM_SANITIZED_HEAP 1
#endif
#endif

// Stages 20,000 commands behind a dead replica (each logged and acked by
// its origin, never stable) and returns the heap they grew: the log's
// arena and the pending entries. Each PREPARE reaches the replica as the
// transport hands it over, decoded as views into a receive buffer.
struct StallCost {
  double log_and_pending = 0;  // bytes per command
  double pending = 0;          // bytes per command, without the log's arena
};

StallCost stall_cost() {
  constexpr std::size_t kCommands = 20'000;
  NullEnv env;
  ClockRsmReplica replica(env, kSpec, {.clocktime_enabled = false});
  replica.start();
  std::string frame;
  const std::size_t before = heap_in_use();
  for (std::size_t i = 1; i <= kCommands; ++i) {
    const Timestamp ts{i, 1};
    Message p = prepare(1, ts, i);
    p.cmd.payload.assign(64, 'x');
    frame.clear();
    p.encode(&frame);
    std::size_t pos = 0;
    replica.on_message(Message::decode_stream_view(frame, &pos));
    replica.on_message(prepare_ok(1, ts, i));
  }
  const std::size_t grown = heap_in_use() - before;
  EXPECT_EQ(replica.pending_count(), kCommands);
  EXPECT_EQ(env.log().size(), kCommands);
  const auto n = static_cast<double>(kCommands);
  return {static_cast<double>(grown) / n,
          static_cast<double>(grown - env.log().records().bytes()) / n};
}

TEST(ClockRsmUnit, StalledCommandCostsAtMost64BytesOfPendingState) {
  // A stalled command's pending entry names its logged PREPARE by position:
  // 24 bytes plus the deque's block slack.
#ifdef CRSM_SANITIZED_HEAP
  GTEST_SKIP() << "a sanitizer's allocator does not report through mallinfo2";
#endif
  const StallCost cost = stall_cost();
  RecordProperty("bytes_per_pending_command", std::to_string(cost.pending));
  EXPECT_LE(cost.pending, 32.0);
}

TEST(ClockRsmUnit, StalledCommandCostsAtMost128BytesOfLogAndPendingState) {
  // The log holds a stalled command's one copy, its 88-byte framed WAL
  // record in the arena; the pending entry adds 24 bytes.
#ifdef CRSM_SANITIZED_HEAP
  GTEST_SKIP() << "a sanitizer's allocator does not report through mallinfo2";
#endif
  const StallCost cost = stall_cost();
  RecordProperty("bytes_per_stalled_command", std::to_string(cost.log_and_pending));
  EXPECT_LE(cost.log_and_pending, 128.0);
}

}  // namespace
}  // namespace crsm
