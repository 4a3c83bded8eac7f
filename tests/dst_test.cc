// Deterministic simulation testing (src/dst): scenario codec, generator and
// runner determinism, the fault knobs the runner is built on, greedy
// shrinking, the injected-bug self-test, and — most importantly — the
// minimized scenarios of every divergence the first swarm runs surfaced,
// pinned as permanent regressions:
//
//  * clockrsm-frozen-commit      — a suspended replica kept committing on
//    stability info piggybacked on PREPAREOK/CLOCKTIME while discarding the
//    concurrent PREPAREs (fixed: maybe_commit gates on frozen_);
//  * clockrsm-epoch-laggard      — newer-epoch PREPAREs were dropped while
//    a replica's decision application lagged, leaving a hole it later
//    committed around (fixed: future-epoch message buffer);
//  * clockrsm-stale-rejoin       — a crash-restart rejoin that terminated by
//    re-applying an old epoch decision re-derived nothing, losing commands
//    survivors committed during the downtime (fixed: post-rejoin catch-up);
//  * clockrsm-blind-application  — a member outside a decision's collector
//    set applied it blind to commands proposed after the collection (fixed:
//    collectors ride the decision; non-collectors run catch-up);
//  * clockrsm-orphan-transfer    — reconfiguration state transfer served
//    uncommitted orphaned prepares as committed state (fixed: below its
//    commit bound, which the reply carries, a server serves marked prepares
//    only; the fetch is the catch-up exchange's decision-fetch mode);
//  * clockrsm-stale-collector    — a restarted replica replaying the epoch
//    decisions it slept through found its pre-crash self among the last
//    decision's collectors and skipped the follow-up catch-up (fixed:
//    collector listings only count for the incarnation that handed its log
//    over — the first failure the read-heavy category surfaced);
//  * mencius-skip-over-filled    — a restarted Mencius replica skip-executed
//    slots that were filled while it was down (fixed: learner mode).
#include <gtest/gtest.h>

#include <string>

#include "dst/generator.h"
#include "dst/runner.h"
#include "dst/scenario.h"
#include "dst/shrink.h"
#include "storage/command_log.h"
#include "transport/sim_transport.h"
#include "util/topology.h"

namespace crsm {
namespace {

using dst::FaultEvent;
using dst::FaultKind;
using dst::GeneratorOptions;
using dst::Protocol;
using dst::RunResult;
using dst::ScenarioSpec;
using dst::ShrinkResult;

// Builds a spec for the hand-written scenarios (power loss, self-test).
std::string spec_header(const char* protocol, int replicas, int seed,
                        double latency_ms, const char* extra) {
  return std::string("protocol ") + protocol + "\nreplicas " +
         std::to_string(replicas) + "\nseed " + std::to_string(seed) +
         "\nlatency_ms " + std::to_string(latency_ms) +
         "\nclients_per_replica 2\nthink_max_ms 40\n"
         "load_until_us 2500000\nquiesce_us 4000000\nend_us 15000000\n"
         "lossy_crash 1\n" +
         extra;
}

// The pinned regression scenarios below are the shrinker's verbatim output
// from real swarm failures (parameters matter: the interleavings are
// timing-sensitive).
constexpr const char* kFrozenSpec = R"(protocol clockrsm
replicas 3
seed 8
latency_ms 38
jitter_ms 0
clock_skew_ms 1.188202469754704
clock_drift 0
reconfig 1
lossy_crash 1
sync_is_noop 0
clients_per_replica 2
think_max_ms 34
load_until_us 2500000
quiesce_us 4000000
end_us 15000000
fault 430000 oneway 1 2
fault 904000 oneway-heal 1 2
fault 1002000 partition 2 0
fault 1629000 heal 2 0
)";

constexpr const char* kLaggardSpec = R"(protocol clockrsm
replicas 3
seed 19
latency_ms 13
jitter_ms 0
clock_skew_ms 1.340463519808214
clock_drift 0
reconfig 1
lossy_crash 1
sync_is_noop 0
clients_per_replica 2
think_max_ms 27
load_until_us 2500000
quiesce_us 4000000
end_us 15000000
fault 454000 crash 0
fault 1046000 restart 0
fault 1804000 oneway 2 0
fault 2585000 oneway-heal 2 0
)";

constexpr const char* kStaleRejoinSpec = R"(protocol clockrsm
replicas 5
seed 116
latency_ms 23
jitter_ms 0
clock_skew_ms 0.2922704510504201
clock_drift 0.0013084179876281699
reconfig 1
lossy_crash 1
sync_is_noop 0
clients_per_replica 2
think_max_ms 29
load_until_us 2500000
quiesce_us 4000000
end_us 15000000
fault 463000 crash 0
fault 1259000 crash 3
fault 1613000 restart 3
)";

constexpr const char* kBlindSpec = R"(protocol clockrsm
replicas 3
seed 16
latency_ms 35
jitter_ms 0.89698910680537591
clock_skew_ms 0.33866611396933038
clock_drift 0
reconfig 1
lossy_crash 1
sync_is_noop 0
clients_per_replica 2
think_max_ms 59
load_until_us 2500000
quiesce_us 4000000
end_us 15000000
fault 404424 clock-jump 0 -47.596280269498344
fault 446000 oneway 0 1
fault 1039000 oneway-heal 0 1
fault 1240000 oneway 0 2
fault 1996000 oneway-heal 0 2
)";

constexpr const char* kOrphanSpec = R"(protocol clockrsm
replicas 5
seed 24
latency_ms 34
jitter_ms 0.4811447920329458
clock_skew_ms 1.412620466706046
clock_drift 0.0010030215291198868
reconfig 1
lossy_crash 1
sync_is_noop 0
clients_per_replica 2
think_max_ms 32
load_until_us 2500000
quiesce_us 4000000
end_us 15000000
fault 959000 oneway 1 0
fault 1280000 oneway-heal 1 0
fault 1506000 partition 1 2
fault 2149000 heal 1 2
fault 2399000 crash 4
fault 3085000 restart 4
)";

constexpr const char* kStaleCollectorSpec = R"(protocol clockrsm
replicas 3
seed 10
latency_ms 10
jitter_ms 2.5096200448100054
clock_skew_ms 1.1703737355168331
clock_drift 0
reconfig 1
lossy_crash 1
sync_is_noop 0
clients_per_replica 2
think_max_ms 55
read_fraction 0.6197335615937658
load_until_us 2500000
quiesce_us 4000000
end_us 15000000
fault 1149000 oneway 0 2
fault 1730000 oneway-heal 0 2
fault 1931000 crash 1
fault 2352000 restart 1
)";

constexpr const char* kMenSkipSpec = R"(protocol mencius
replicas 3
seed 220
latency_ms 5
jitter_ms 2.9416452961626738
clock_skew_ms 2.5523778719851533
clock_drift 0
reconfig 0
lossy_crash 1
sync_is_noop 0
clients_per_replica 2
think_max_ms 59
load_until_us 2500000
quiesce_us 4000000
end_us 15000000
fault 487000 crash 1
)";

constexpr const char* kMenOnewaySpec = R"(protocol mencius
replicas 3
seed 147
latency_ms 14
jitter_ms 0
clock_skew_ms 2.7159813039418288
clock_drift 0
reconfig 0
lossy_crash 1
sync_is_noop 0
clients_per_replica 2
think_max_ms 60
load_until_us 2500000
quiesce_us 4000000
end_us 15000000
fault 353000 oneway 2 1
fault 935000 oneway-heal 2 1
fault 1020000 crash 2
)";

// --- scenario codec --------------------------------------------------------

TEST(DstScenario, EncodeDecodeRoundTrips) {
  ScenarioSpec spec = dst::generate_scenario(12345);
  const ScenarioSpec decoded = ScenarioSpec::decode(spec.encode());
  EXPECT_EQ(decoded.protocol, spec.protocol);
  EXPECT_EQ(decoded.replicas, spec.replicas);
  EXPECT_EQ(decoded.seed, spec.seed);
  EXPECT_EQ(decoded.latency_ms, spec.latency_ms);
  EXPECT_EQ(decoded.jitter_ms, spec.jitter_ms);
  EXPECT_EQ(decoded.clock_skew_ms, spec.clock_skew_ms);
  EXPECT_EQ(decoded.clock_drift, spec.clock_drift);
  EXPECT_EQ(decoded.reconfig, spec.reconfig);
  EXPECT_EQ(decoded.faults, spec.faults);
  // Idempotent: re-encoding reproduces the text byte for byte.
  EXPECT_EQ(decoded.encode(), spec.encode());
}

TEST(DstScenario, ReadFractionRoundTripsAndDefaultsToZero) {
  GeneratorOptions opt;
  opt.protocol = Protocol::kClockRsm;
  opt.read_heavy = true;
  const ScenarioSpec spec = dst::generate_scenario(42, opt);
  ASSERT_GT(spec.read_fraction, 0.0);
  const ScenarioSpec decoded = ScenarioSpec::decode(spec.encode());
  EXPECT_EQ(decoded.read_fraction, spec.read_fraction);
  EXPECT_EQ(decoded.encode(), spec.encode());
  // Pre-read-path specs carry no read_fraction line and decode to a pure
  // write workload, keeping the pinned regression scenarios byte-stable.
  EXPECT_EQ(ScenarioSpec::decode(kFrozenSpec).read_fraction, 0.0);
}

TEST(DstScenario, DecodeRejectsMalformedInput) {
  EXPECT_THROW((void)ScenarioSpec::decode("protocol nosuch\n"), std::runtime_error);
  EXPECT_THROW((void)ScenarioSpec::decode("fault 10 nosuch-kind 1\n"),
               std::runtime_error);
  EXPECT_THROW((void)ScenarioSpec::decode("gibberish 1\n"), std::runtime_error);
  EXPECT_THROW((void)ScenarioSpec::decode("replicas 0\n"), std::runtime_error);
}

// --- generator -------------------------------------------------------------

TEST(DstGenerator, SameSeedSameScenario) {
  for (std::uint64_t seed : {1u, 7u, 99u}) {
    const ScenarioSpec a = dst::generate_scenario(seed);
    const ScenarioSpec b = dst::generate_scenario(seed);
    EXPECT_EQ(a.encode(), b.encode()) << "seed " << seed;
  }
}

TEST(DstGenerator, RespectsProtocolPinAndConstraints) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    GeneratorOptions opt;
    opt.protocol = Protocol::kPaxos;
    const ScenarioSpec spec = dst::generate_scenario(seed, opt);
    EXPECT_EQ(spec.protocol, Protocol::kPaxos);
    for (const FaultEvent& f : spec.faults) {
      // The fixed Paxos leader (replica 0) must never be crashed: there is
      // no election, so its loss ends progress for the whole run.
      if (f.kind == FaultKind::kCrash) EXPECT_NE(f.a, 0u) << "seed " << seed;
      // No drop windows in generated scenarios (no retransmission layer).
      EXPECT_NE(static_cast<int>(f.kind),
                static_cast<int>(FaultKind::kDropStart));
      // Every fault is scheduled before the quiesce point.
      EXPECT_LT(f.at_us, spec.quiesce_us);
    }
  }
  GeneratorOptions consensus;
  consensus.protocol = Protocol::kConsensus;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    for (const FaultEvent& f : dst::generate_scenario(seed, consensus).faults) {
      // The synod keeps acceptor state in memory; crashes are out of model.
      EXPECT_NE(static_cast<int>(f.kind), static_cast<int>(FaultKind::kCrash));
    }
  }
}

TEST(DstGenerator, ReadHeavyForcesClockRsmReadMix) {
  GeneratorOptions opt;
  opt.protocol = Protocol::kClockRsm;
  opt.read_heavy = true;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const ScenarioSpec spec = dst::generate_scenario(seed, opt);
    EXPECT_GE(spec.read_fraction, 0.5) << "seed " << seed;
    EXPECT_LE(spec.read_fraction, 0.95) << "seed " << seed;
  }
  // Only Clock-RSM has a local read path; other protocols stay write-only
  // even when the swarm asks for read-heavy scenarios.
  opt.protocol = Protocol::kMencius;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    EXPECT_EQ(dst::generate_scenario(seed, opt).read_fraction, 0.0)
        << "seed " << seed;
  }
}

// --- runner: determinism and generated smoke -------------------------------

TEST(DstRunner, SameSpecByteIdenticalTrace) {
  for (std::uint64_t seed : {3u, 4u, 5u, 6u}) {
    const ScenarioSpec spec = dst::generate_scenario(seed);
    const RunResult a = dst::run_scenario(spec);
    const RunResult b = dst::run_scenario(spec);
    EXPECT_EQ(a.trace, b.trace) << "seed " << seed;
    EXPECT_EQ(a.ok, b.ok);
  }
}

TEST(DstRunner, GeneratedSeedsPassAllInvariants) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const ScenarioSpec spec = dst::generate_scenario(seed);
    const RunResult r = dst::run_scenario(spec);
    EXPECT_TRUE(r.ok) << "seed " << seed << " (" << spec.summary()
                      << "): " << r.failure;
  }
}

TEST(DstRunner, ReadHeavyScenariosPassAndStayDeterministic) {
  GeneratorOptions opt;
  opt.protocol = Protocol::kClockRsm;
  opt.read_heavy = true;
  for (std::uint64_t seed : {2u, 9u, 21u}) {
    const ScenarioSpec spec = dst::generate_scenario(seed, opt);
    const RunResult a = dst::run_scenario(spec);
    const RunResult b = dst::run_scenario(spec);
    EXPECT_TRUE(a.ok) << "seed " << seed << " (" << spec.summary()
                      << "): " << a.failure;
    EXPECT_EQ(a.trace, b.trace) << "seed " << seed;
    EXPECT_EQ(a.ok, b.ok);
  }
}

TEST(DstRunner, HandWrittenReadScenarioExercisesStaleReadChecker) {
  // Reads riding through a backward clock jump, a one-way outage against a
  // serving replica, and a crash-restart of a replica holding pending
  // reads: the extended checker sees every read and must find none stale,
  // and the post-quiesce read probes must all be served.
  const ScenarioSpec spec = ScenarioSpec::decode(
      spec_header("clockrsm", 3, 11, 18,
                  "reconfig 0\n"
                  "read_fraction 0.9\n"
                  "clock_skew_ms 1.5\n"
                  "fault 500000 clock-jump 1 -60\n"
                  "fault 700000 oneway 2 0\n"
                  "fault 1400000 oneway-heal 2 0\n"
                  "fault 1800000 crash 1\n"
                  "fault 2400000 restart 1\n"));
  const RunResult r = dst::run_scenario(spec);
  EXPECT_TRUE(r.ok) << r.failure;
  // The trace records the read half of the workload.
  EXPECT_NE(r.trace.find("reads="), std::string::npos);
}

// --- pinned regressions (minimized by the shrinker from real swarm runs) ---

void expect_pass(const std::string& spec_text, const char* what) {
  const ScenarioSpec spec = ScenarioSpec::decode(spec_text);
  const RunResult r = dst::run_scenario(spec);
  EXPECT_TRUE(r.ok) << what << ": " << r.failure;
}

TEST(DstRegression, ClockRsmFrozenReplicaMustNotCommit) {
  // Swarm seed 8: a one-way outage then a partition during dueling
  // reconfigurations. A suspended replica kept committing its pending queue
  // on stability info from PREPAREOK/CLOCKTIME while the frozen gate
  // discarded the matching PREPAREs; the heal-flush delivered exactly that
  // message mix and the replica executed around commands it never saw.
  expect_pass(kFrozenSpec, "frozen-commit");
}

TEST(DstRegression, ClockRsmEpochLaggardBuffersNewEpochTraffic) {
  // Swarm seed 19: crash/restart then a one-way outage. A replica whose
  // decision application lagged (it learned the epoch via the laggard-answer
  // path) dropped the new epoch's first PREPAREs as "newer-epoch traffic"
  // and committed around the hole once its stability vector caught up.
  expect_pass(kLaggardSpec, "epoch-laggard");
}

TEST(DstRegression, ClockRsmStaleRejoinRunsCatchup) {
  // Swarm seed 116 (5 replicas): a restart whose rejoin terminated by
  // re-applying an old epoch decision (the cluster's epoch never advanced
  // past the replica's pre-crash epoch), re-deriving nothing — while the
  // survivors had committed the replica's own unresolved tail during its
  // downtime.
  expect_pass(kStaleRejoinSpec, "stale-rejoin");
}

TEST(DstRegression, ClockRsmNonCollectorAppliesDecisionWithCatchup) {
  // Swarm seed 16: a backward clock jump plus two one-way outages. A member
  // outside the decided collection's majority applied the decision blind —
  // its pending queue held commands proposed after the collection formed,
  // which the epilogue's pending clear wiped for good.
  expect_pass(kBlindSpec, "blind-application");
}

TEST(DstRegression, ClockRsmStateTransferServesCommittedOnly) {
  // Swarm seed 24 (5 replicas): an orphaned proposal (superseded without
  // committing anywhere) survived a catch-up's majority fallback in its
  // origin's log, and a later reconfiguration state transfer handed it back
  // to the rejoining origin as committed state.
  expect_pass(kOrphanSpec, "orphan-transfer");
}

TEST(DstRegression, ClockRsmStaleCatchupCancelledOnEpochDecision) {
  // Swarm seed 116, four-fault variant (5 replicas, two staggered crash
  // windows): a catch-up round that started before an epoch decision kept
  // running across it, re-staging and re-acking open entries the decision
  // had truncated — three independently catching-up replicas re-acked a
  // dead proposal back to a fake majority and a subset committed it.
  // finish_decision now cancels in-flight catch-up and starts a fresh
  // round against post-truncation logs.
  expect_pass(spec_header("clockrsm", 5, 116, 23,
                          "reconfig 1\n"
                          "clock_skew_ms 0.2922704510504201\n"
                          "clock_drift 0.0013084179876281699\n"
                          "think_max_ms 29\n"
                          "fault 463000 crash 0\n"
                          "fault 1200000 restart 0\n"
                          "fault 1259000 crash 3\n"
                          "fault 1613000 restart 3\n"),
              "stale-catchup-cancel");
}

TEST(DstRegression, ClockRsmRestartedCollectorStillRunsCatchup) {
  // Swarm seed 10, the first failure the read-heavy category surfaced: a
  // one-way outage forces two reconfigurations (drop replica 0, re-add it),
  // then replica 1 crashes and restarts. The rejoin replays both old
  // decisions in sequence; each application clears pending_ and cancels the
  // in-flight catch-up, and the *last* one found the replica listed among
  // its collectors — a listing earned by the pre-crash incarnation's log —
  // so it skipped the replacement catch-up and committed around a command
  // proposed during the downtime. Collector listings now only count for the
  // incarnation that actually handed its log over.
  expect_pass(kStaleCollectorSpec, "stale-collector-listing");
}

TEST(DstRegression, MenciusRestartMustNotSkipFilledSlots) {
  // Swarm seed 220: one crash. The restarted replica's fresh acks carried
  // high skip bounds, and the skip-execution rule ("bound + FIFO proves the
  // slot is unused") is void across a channel discontinuity — it skipped
  // slots that were filled while it was down and diverged permanently.
  expect_pass(kMenSkipSpec, "mencius-skip");
}

TEST(DstRegression, MenciusOneWayOutageThenCrash) {
  // Swarm seed 147: the same class with an asymmetric outage first.
  expect_pass(kMenOnewaySpec, "mencius-oneway-crash");
}

TEST(DstRegression, ClockRsmCatchupRecoveryWithoutReconfig) {
  // Plain-replay restart was never sound: commands committed while a
  // replica is down leave a hole its stability vector later jumps past.
  // The runner pairs reconfig-off Clock-RSM with Section V-B catch-up.
  expect_pass(spec_header("clockrsm", 3, 1, 27,
                          "reconfig 0\n"
                          "clock_drift 0.019\n"
                          "fault 878000 crash 1\n"
                          "fault 1900000 restart 1\n"
                          "fault 2300000 oneway 1 0\n"
                          "fault 3100000 oneway-heal 1 0\n"),
              "catchup-recovery");
}

TEST(DstRegression, WholeClusterPowerLossRecovers) {
  // Simultaneous power loss of every replica: un-synced log tails are gone,
  // survivors replay their WALs, rejoin via reconfiguration and catch each
  // other up. Every acknowledged command must survive.
  expect_pass(spec_header("clockrsm", 3, 7, 10,
                          "reconfig 1\n"
                          "jitter_ms 0.5\n"
                          "fault 1500000 crash 0\n"
                          "fault 1500000 crash 1\n"
                          "fault 1500000 crash 2\n"
                          "fault 2200000 restart 0\n"
                          "fault 2200000 restart 1\n"
                          "fault 2200000 restart 2\n"),
              "whole-cluster-power-loss");
}

// --- injected-bug self-test + shrinking ------------------------------------

TEST(DstSelfTest, SyncNoopBugIsCaughtAndShrinks) {
  // Harness validation: with log sync() neutered, the whole-cluster power
  // loss MUST fail the durability invariant (acknowledged commands vanish),
  // and the shrinker must reduce the schedule to the three crashes (the
  // restarts are redundant: the runner force-restarts at quiesce).
  ScenarioSpec spec = ScenarioSpec::decode(
      spec_header("clockrsm", 3, 7, 10,
                  "reconfig 1\n"
                  "jitter_ms 0.5\n"
                  "sync_is_noop 1\n"
                  "fault 1500000 crash 0\n"
                  "fault 1500000 crash 1\n"
                  "fault 1500000 crash 2\n"
                  "fault 2200000 restart 0\n"
                  "fault 2200000 restart 1\n"
                  "fault 2200000 restart 2\n"));
  const RunResult direct = dst::run_scenario(spec);
  ASSERT_FALSE(direct.ok);
  EXPECT_EQ(dst::failure_category(direct.failure), "durability");

  const ShrinkResult shrunk = dst::shrink_scenario(spec);
  EXPECT_FALSE(shrunk.run.ok);
  EXPECT_EQ(dst::failure_category(shrunk.run.failure), "durability");
  EXPECT_LE(shrunk.spec.faults.size(), 5u);
  // Removing any remaining event makes the failure disappear (local
  // minimum); with fewer than all three crashes a surviving log re-seeds
  // the cluster.
  EXPECT_EQ(shrunk.spec.faults.size(), 3u);
}

TEST(DstShrink, RemovesIrrelevantFaultEvents) {
  // Start from the failing power-loss bug scenario and pad it with faults
  // that have nothing to do with the failure; the shrinker must delete all
  // of them.
  ScenarioSpec spec = ScenarioSpec::decode(
      spec_header("clockrsm", 3, 7, 10,
                  "reconfig 1\n"
                  "sync_is_noop 1\n"
                  "fault 600000 delay-spike 20\n"
                  "fault 800000 delay-clear\n"
                  "fault 900000 clock-jump 1 80\n"
                  "fault 1500000 crash 0\n"
                  "fault 1500000 crash 1\n"
                  "fault 1500000 crash 2\n"));
  const ShrinkResult shrunk = dst::shrink_scenario(spec);
  ASSERT_FALSE(shrunk.run.ok);
  EXPECT_EQ(shrunk.spec.faults.size(), 3u);
  for (const FaultEvent& f : shrunk.spec.faults) {
    EXPECT_EQ(static_cast<int>(f.kind), static_cast<int>(FaultKind::kCrash));
  }
}

// --- the fault primitives the runner is built on ---------------------------

struct KnobFixture {
  Simulator sim;
  SimTransport net{sim, LatencyMatrix::uniform(3, 1.0), Rng(1),
                   SimTransport::Options{}};
  std::vector<std::vector<Message>> received{3};

  KnobFixture() {
    for (ReplicaId r = 0; r < 3; ++r) {
      net.register_replica(r, [this, r](const Message& m) {
        received[r].push_back(m);
      });
    }
  }

  Message mk(Tick clock_ts) {
    Message m;
    m.type = MsgType::kClockTime;
    m.clock_ts = clock_ts;
    return m;
  }
};

TEST(DstFaultKnobs, OneWayBlockDropsOneDirectionOnly) {
  KnobFixture f;
  f.net.set_link_blocked(0, 1, true);
  f.net.send(0, 1, f.mk(1));  // blocked direction: dropped
  f.net.send(1, 0, f.mk(2));  // reverse direction: unaffected
  f.sim.run();
  EXPECT_TRUE(f.received[1].empty());
  ASSERT_EQ(f.received[0].size(), 1u);
  EXPECT_EQ(f.net.stats().messages_dropped, 1u);
}

TEST(DstFaultKnobs, OutageQueuesAndFlushesInOrder) {
  KnobFixture f;
  f.net.set_link_outage(0, 1, true);
  f.net.send(0, 1, f.mk(1));
  f.net.send(0, 1, f.mk(2));
  f.sim.run();
  EXPECT_TRUE(f.received[1].empty());  // queued, not delivered, not dropped
  EXPECT_EQ(f.net.stats().messages_dropped, 0u);

  f.net.set_link_outage(0, 1, false);
  f.net.send(0, 1, f.mk(3));  // sent after the heal: delivered after backlog
  f.sim.run();
  ASSERT_EQ(f.received[1].size(), 3u);
  EXPECT_EQ(f.received[1][0].clock_ts, 1u);
  EXPECT_EQ(f.received[1][1].clock_ts, 2u);
  EXPECT_EQ(f.received[1][2].clock_ts, 3u);
}

TEST(DstFaultKnobs, CrashClearsTheCrashedSendersBacklog) {
  KnobFixture f;
  f.net.set_link_outage(0, 1, true);
  f.net.send(0, 1, f.mk(1));
  f.net.crash(0);  // the process dies; its retransmission queue dies too
  f.net.recover(0);
  f.net.set_link_outage(0, 1, false);
  f.sim.run();
  EXPECT_TRUE(f.received[1].empty());
}

TEST(DstFaultKnobs, DuplicateProbabilityDeliversTwice) {
  KnobFixture f;
  f.net.set_dup_prob(1.0);
  f.net.send(0, 1, f.mk(1));
  f.sim.run();
  ASSERT_EQ(f.received[1].size(), 2u);
  EXPECT_EQ(f.net.stats().messages_duplicated, 1u);
  EXPECT_EQ(f.net.stats().messages_delivered, 2u);
}

TEST(DstFaultKnobs, DropProbabilityDropsAndCounts) {
  KnobFixture f;
  f.net.set_drop_prob(1.0);
  f.net.send(0, 1, f.mk(1));
  f.net.send(0, 0, f.mk(2));  // self-delivery is never fault-injected
  f.sim.run();
  EXPECT_TRUE(f.received[1].empty());
  EXPECT_EQ(f.received[0].size(), 1u);
  EXPECT_EQ(f.net.stats().messages_fault_dropped, 1u);
}

TEST(DstFaultKnobs, ClearFaultsHealsEverythingAndFlushes) {
  KnobFixture f;
  f.net.set_link_blocked(0, 1, true);
  f.net.set_link_outage(1, 2, true);
  f.net.set_drop_prob(1.0);
  f.net.send(1, 2, f.mk(7));
  f.net.clear_faults();
  f.sim.run();
  ASSERT_EQ(f.received[2].size(), 1u);  // outage backlog flushed
  f.net.send(0, 1, f.mk(8));
  f.sim.run();
  ASSERT_EQ(f.received[1].size(), 1u);  // block cleared, drop prob reset
}

TEST(DstFaultKnobs, ExtraDelayShiftsArrival) {
  KnobFixture f;
  f.net.send(0, 1, f.mk(1));
  f.sim.run();
  const Tick base = f.sim.now();
  f.net.set_extra_delay_us(50'000);
  f.net.send(0, 1, f.mk(2));
  f.sim.run();
  EXPECT_GE(f.sim.now(), base + 50'000);
}

// --- power-loss log --------------------------------------------------------

TEST(DstCrashLossyLog, DropsUnsyncedTailOnly) {
  CrashLossyLog log;
  Command c;
  c.client = 1;
  c.seq = 1;
  log.append(LogRecord::prepare(Timestamp{10, 0}, c));
  log.sync();
  log.append(LogRecord::prepare(Timestamp{20, 0}, c));
  EXPECT_EQ(log.unsynced(), 1u);
  log.drop_unsynced();
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records().to_vector()[0].ts, (Timestamp{10, 0}));
}

TEST(DstCrashLossyLog, SyncNoopLosesEverything) {
  CrashLossyLog log;
  log.set_sync_is_noop(true);
  Command c;
  c.client = 1;
  c.seq = 1;
  log.append(LogRecord::prepare(Timestamp{10, 0}, c));
  log.sync();  // neutered: the durability point never advances
  log.drop_unsynced();
  EXPECT_TRUE(log.records().empty());
}

}  // namespace
}  // namespace crsm
