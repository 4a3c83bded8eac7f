// Determinism: identical seeds must produce bit-identical simulations —
// the property that makes every figure in EXPERIMENTS.md reproducible and
// failure scenarios replayable.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "clockrsm/clock_rsm.h"
#include "test_util.h"
#include "util/rng.h"

namespace crsm {
namespace {

using test::kv_factory;
using test::kv_put;
using test::world_opts;

struct RunResult {
  std::vector<std::vector<ExecRecord>> executions;
  std::uint64_t messages;
  std::uint64_t events;
  std::vector<std::uint64_t> digests;
};

RunResult run_once(std::uint64_t seed, const SimWorld::ProtocolFactory& factory) {
  SimWorldOptions o = world_opts(test::ec2_five(), seed);
  o.clock_skew_ms = 3.0;
  o.clock_drift = 0.001;
  o.jitter_ms = 2.0;
  SimWorld w(o, factory, kv_factory());
  w.start();
  Rng rng(seed + 5);
  std::vector<std::uint64_t> seq(5, 1);
  for (int i = 0; i < 60; ++i) {
    const auto r = static_cast<ReplicaId>(rng.uniform_int(0, 4));
    const Tick at = ms_to_us(rng.uniform(0.0, 800.0));
    const std::uint64_t s = seq[r]++;
    w.sim().after(at, [&w, r, s] {
      w.submit(r, kv_put(make_client_id(r, 0), s, "k" + std::to_string(s % 9),
                         std::to_string(s)));
    });
  }
  w.sim().run_until(ms_to_us(20'000.0));

  RunResult res;
  for (ReplicaId r = 0; r < 5; ++r) {
    res.executions.push_back(w.execution(r));
    res.digests.push_back(w.state_machine(r).state_digest());
  }
  res.messages = w.network().messages_sent();
  res.events = w.sim().executed();
  return res;
}

TEST(Determinism, IdenticalSeedsProduceIdenticalRuns) {
  const auto factory = clock_rsm_factory(5);
  const RunResult a = run_once(1234, factory);
  const RunResult b = run_once(1234, factory);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.digests, b.digests);
  for (ReplicaId r = 0; r < 5; ++r) {
    ASSERT_EQ(a.executions[r].size(), b.executions[r].size()) << "replica " << r;
    for (std::size_t i = 0; i < a.executions[r].size(); ++i) {
      EXPECT_EQ(a.executions[r][i].ts, b.executions[r][i].ts);
      EXPECT_EQ(a.executions[r][i].cmd, b.executions[r][i].cmd);
      EXPECT_EQ(a.executions[r][i].sim_time_us, b.executions[r][i].sim_time_us)
          << "commit times diverged at replica " << r << " index " << i;
    }
  }
}

// FNV-1a over every replica's (ts, sim_time_us) execution sequence and the
// simulator's executed-event count.
std::uint64_t order_digest(const RunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& exec : r.executions) {
    mix(exec.size());
    for (const ExecRecord& e : exec) {
      mix(e.ts.ticks);
      mix(e.ts.origin);
      mix(e.sim_time_us);
    }
  }
  mix(r.events);
  return h;
}

// A run built to be sensitive to the order of same-time events: no network
// jitter, and submissions on a 20 ms grid, so many messages arrive at the
// same microsecond and only the simulator's tie-break decides which handler
// runs first.
RunResult run_tie_heavy(std::uint64_t seed) {
  SimWorldOptions o = world_opts(test::ec2_five(), seed);
  o.clock_skew_ms = 1.0;
  SimWorld w(o, clock_rsm_factory(5), kv_factory());
  w.start();
  Rng rng(seed + 5);
  std::vector<std::uint64_t> seq(5, 1);
  for (int i = 0; i < 60; ++i) {
    const auto r = static_cast<ReplicaId>(rng.uniform_int(0, 4));
    const Tick at = ms_to_us(20.0 * static_cast<double>(rng.uniform_int(0, 40)));
    const std::uint64_t s = seq[r]++;
    w.sim().after(at, [&w, r, s] {
      w.submit(r, kv_put(make_client_id(r, 0), s, "k", std::to_string(s)));
    });
  }
  w.sim().run_until(ms_to_us(5'000.0));
  RunResult res;
  for (ReplicaId r = 0; r < 5; ++r) res.executions.push_back(w.execution(r));
  res.messages = w.network().messages_sent();
  res.events = w.sim().executed();
  return res;
}

TEST(Determinism, EventOrderIsPinnedAcrossBuilds) {
  // Identical seeds agreeing within one build is not enough: a change to the
  // simulator's event plumbing could reorder ties the same way every run
  // and still shift every figure. This pins one tie-heavy run's commit
  // order, commit times and event count to a recorded value. If a change is
  // *meant* to alter the schedule, re-record the value and say so.
  const RunResult r = run_tie_heavy(7);
  EXPECT_EQ(r.executions[0].size(), 60u);
  EXPECT_EQ(order_digest(r), 0xec5379ec29b69462ull) << std::hex << order_digest(r);
}

TEST(Determinism, DifferentSeedsProduceDifferentSchedules) {
  const auto factory = clock_rsm_factory(5);
  const RunResult a = run_once(1, factory);
  const RunResult b = run_once(2, factory);
  // Same workload *logic* but different jitter/skew/think draws: the
  // fine-grained schedules must differ.
  EXPECT_NE(a.events, b.events);
}

TEST(Determinism, HoldsUnderFailureInjection) {
  ClockRsmOptions opt;
  opt.reconfig_enabled = true;
  opt.fd_timeout_us = 400'000;
  opt.fd_check_interval_us = 100'000;
  std::vector<ReplicaId> spec = {0, 1, 2, 3, 4};
  auto factory = [&spec, opt](ProtocolEnv& env, ReplicaId) {
    return std::make_unique<ClockRsmReplica>(env, spec, opt);
  };

  auto run = [&](std::uint64_t seed) {
    SimWorldOptions o = world_opts(LatencyMatrix::uniform(5, 12.0), seed);
    o.clock_skew_ms = 2.0;
    o.jitter_ms = 1.0;
    SimWorld w(o, factory, kv_factory());
    w.start();
    for (int i = 0; i < 10; ++i) {
      w.sim().after(ms_to_us(50.0 * i), [&w, i] {
        w.submit(static_cast<ReplicaId>(i % 5),
                 kv_put(1, i + 1, "k", std::to_string(i)));
      });
    }
    w.sim().after(ms_to_us(600.0), [&w] { w.crash(4); });
    w.sim().run_until(ms_to_us(10'000.0));
    std::vector<std::uint64_t> digests;
    for (ReplicaId r = 0; r < 4; ++r) {
      digests.push_back(w.state_machine(r).state_digest());
    }
    return std::pair(digests, w.network().messages_sent());
  };

  const auto a = run(77);
  const auto b = run(77);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace crsm
