// Protocol tests for Multi-Paxos and Paxos-bcast in the simulator.
#include <gtest/gtest.h>

#include "paxos/multi_paxos.h"
#include "test_util.h"

namespace crsm {
namespace {

using test::expect_agreement;
using test::kv_factory;
using test::kv_put;
using test::world_opts;

TEST(Paxos, LeaderCommandCommitsEverywhere) {
  SimWorld w(world_opts(LatencyMatrix::uniform(3, 20.0)),
             paxos_factory(3, /*leader=*/0, /*broadcast=*/false), kv_factory());
  w.start();
  w.submit(0, kv_put(1, 1, "k", "v"));
  w.sim().run_until(ms_to_us(500.0));
  for (ReplicaId r = 0; r < 3; ++r) ASSERT_EQ(w.execution(r).size(), 1u);
  expect_agreement(w);
}

TEST(Paxos, NonLeaderCommandForwardsAndCommits) {
  SimWorld w(world_opts(LatencyMatrix::uniform(3, 20.0)),
             paxos_factory(3, 0, false), kv_factory());
  int replies = 0;
  ReplicaId origin = kNoReplica;
  w.set_commit_hook([&](ReplicaId r, const Command&, Timestamp, bool local) {
    if (local) {
      ++replies;
      origin = r;
    }
  });
  w.start();
  w.submit(2, kv_put(1, 1, "k", "v"));
  w.sim().run_until(ms_to_us(500.0));
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(origin, 2u);
  EXPECT_EQ(static_cast<PaxosReplica&>(w.protocol(2)).stats().forwarded, 1u);
}

TEST(Paxos, ClassicLatencyMatchesFormula) {
  // Uniform d=30ms, 3 replicas, leader 0. Non-leader origin r1:
  // 2*d(1,0) + 2*median(row 0) = 60 + 60 = 120 ms.
  SimWorld w(world_opts(LatencyMatrix::uniform(3, 30.0)),
             paxos_factory(3, 0, false), kv_factory());
  Tick committed_at = 0;
  w.set_commit_hook([&](ReplicaId, const Command&, Timestamp, bool local) {
    if (local) committed_at = w.sim().now();
  });
  w.start();
  w.submit(1, kv_put(1, 1, "k", "v"));
  w.sim().run_until(ms_to_us(1'000.0));
  ASSERT_GT(committed_at, 0u);
  EXPECT_NEAR(us_to_ms(committed_at), 120.0, 2.0);
}

TEST(Paxos, BcastLatencyMatchesFormula) {
  // Paxos-bcast at non-leader r1: d(1,0) + median_k(d(0,k)+d(k,1)).
  // Uniform 30: 30 + median{30, 30+30, 30+30... } over k in {0(=d01),1,2}:
  // k=0: d(0,0)+d(0,1)=30; k=1: d(0,1)+0=30; k=2: 60 -> median (idx1) = 30.
  // Total 60 ms.
  SimWorld w(world_opts(LatencyMatrix::uniform(3, 30.0)),
             paxos_factory(3, 0, true), kv_factory());
  Tick committed_at = 0;
  w.set_commit_hook([&](ReplicaId r, const Command&, Timestamp, bool local) {
    if (local && r == 1) committed_at = w.sim().now();
  });
  w.start();
  w.submit(1, kv_put(1, 1, "k", "v"));
  w.sim().run_until(ms_to_us(1'000.0));
  ASSERT_GT(committed_at, 0u);
  EXPECT_NEAR(us_to_ms(committed_at), 60.0, 2.0);
}

TEST(Paxos, ExecutesInSlotOrderUnderConcurrency) {
  SimWorld w(world_opts(test::ec2_five(), 5), paxos_factory(5, 1, true), kv_factory());
  w.start();
  for (int i = 0; i < 20; ++i) {
    for (ReplicaId r = 0; r < 5; ++r) {
      w.sim().after(ms_to_us(10.0 * i), [&w, r, i] {
        w.submit(r, kv_put(make_client_id(r, 0), i + 1, "k" + std::to_string(r),
                           std::to_string(i)));
      });
    }
  }
  w.sim().run_until(ms_to_us(5'000.0));
  ASSERT_EQ(w.execution(0).size(), 100u);
  expect_agreement(w);
  // Slots execute in increasing order (slot is carried in ts.ticks).
  for (ReplicaId r = 0; r < 5; ++r) {
    const auto& exec = w.execution(r);
    for (std::size_t i = 0; i < exec.size(); ++i) {
      EXPECT_EQ(exec[i].ts.ticks, i) << "slot gap at replica " << r;
    }
  }
}

TEST(Paxos, ClassicMessageComplexityLinear) {
  // One non-leader command, classic mode: FWD(1) + 2A(N) + 2B(N) +
  // COMMIT(N) = 1 + 3N messages.
  SimWorld w(world_opts(LatencyMatrix::uniform(5, 20.0)),
             paxos_factory(5, 0, false), kv_factory());
  w.start();
  w.submit(1, kv_put(1, 1, "k", "v"));
  w.sim().run_until(ms_to_us(1'000.0));
  EXPECT_EQ(w.network().messages_sent(), 1u + 3u * 5u);
}

TEST(Paxos, BcastMessageComplexityQuadratic) {
  // One non-leader command, bcast mode: FWD(1) + 2A(N) + 2B(N^2).
  SimWorld w(world_opts(LatencyMatrix::uniform(5, 20.0)),
             paxos_factory(5, 0, true), kv_factory());
  w.start();
  w.submit(1, kv_put(1, 1, "k", "v"));
  w.sim().run_until(ms_to_us(1'000.0));
  EXPECT_EQ(w.network().messages_sent(), 1u + 5u + 25u);
}

TEST(Paxos, LeaderIsConfigurable) {
  SimWorld w(world_opts(LatencyMatrix::uniform(3, 10.0)),
             paxos_factory(3, 2, true), kv_factory());
  w.start();
  EXPECT_FALSE(static_cast<PaxosReplica&>(w.protocol(0)).is_leader());
  EXPECT_TRUE(static_cast<PaxosReplica&>(w.protocol(2)).is_leader());
  EXPECT_EQ(static_cast<PaxosReplica&>(w.protocol(0)).leader(), 2u);
}

TEST(Paxos, RejectsBadLeader) {
  Simulator sim;  // unused; constructing the protocol directly needs an env
  SimWorld w(world_opts(LatencyMatrix::uniform(3, 10.0)),
             paxos_factory(3, 0, false), kv_factory());
  // Factory-level misuse is covered by the constructor contract:
  std::vector<ReplicaId> replicas = {0, 1, 2};
  struct NullEnv final : ProtocolEnv {
    MemLog l;
    [[nodiscard]] ReplicaId self() const override { return 0; }
    void send(ReplicaId, Message) override {}
    [[nodiscard]] Tick clock_now() override { return 0; }
    void schedule_after(Tick, std::function<void()>) override {}
    [[nodiscard]] CommandLog& log() override { return l; }
    void deliver(const Command&, Timestamp, bool) override {}
  } env;
  EXPECT_THROW(PaxosReplica(env, replicas, 9, PaxosMode::kClassic),
               std::invalid_argument);
  EXPECT_THROW(PaxosReplica(env, {}, 0, PaxosMode::kClassic), std::invalid_argument);
}

}  // namespace
}  // namespace crsm
