// Unit tests for the discrete-event simulator, network and simulated clocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "clock/sim_clock.h"
#include "clock/system_clock.h"
#include "sim/simulator.h"
#include "transport/sim_transport.h"
#include "util/rng.h"
#include "util/topology.h"

namespace crsm {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(Simulator, EqualTimesRunInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, HandlersMayScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) sim.after(10, chain);
  };
  sim.after(10, chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), 50u);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  sim.at(100, [&] {
    sim.at(50, [] {});  // in the past; must still run (at now)
  });
  sim.run();
  EXPECT_EQ(sim.executed(), 2u);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, RunUntilAdvancesTime) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50u);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(200);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 200u);
}

class SimTransportTest : public ::testing::Test {
 protected:
  SimTransportTest()
      : net_(sim_, LatencyMatrix::uniform(3, 10.0), Rng(7)) {
    for (ReplicaId r = 0; r < 3; ++r) {
      net_.register_replica(r, [this, r](const Message& m) {
        received_[r].push_back(m);
      });
    }
  }

  Message mk(Tick clock_ts) {
    Message m;
    m.type = MsgType::kClockTime;
    m.from = 0;
    m.clock_ts = clock_ts;
    return m;
  }

  Simulator sim_;
  SimTransport net_;
  std::vector<Message> received_[3];
};

TEST_F(SimTransportTest, DeliversWithOneWayLatency) {
  net_.send(0, 1, mk(1));
  sim_.run();
  ASSERT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(sim_.now(), ms_to_us(10.0));
}

TEST_F(SimTransportTest, SelfDeliveryIsImmediate) {
  net_.send(0, 0, mk(1));
  sim_.run();
  ASSERT_EQ(received_[0].size(), 1u);
  EXPECT_LE(sim_.now(), 1u);
}

TEST_F(SimTransportTest, FifoPerLink) {
  for (Tick i = 0; i < 50; ++i) net_.send(0, 1, mk(i));
  sim_.run();
  ASSERT_EQ(received_[1].size(), 50u);
  for (Tick i = 0; i < 50; ++i) EXPECT_EQ(received_[1][i].clock_ts, i);
}

TEST_F(SimTransportTest, CrashDropsInFlightAndFuture) {
  net_.send(0, 1, mk(1));
  net_.crash(1);
  net_.send(0, 1, mk(2));
  sim_.run();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(net_.messages_dropped(), 2u);
  net_.recover(1);
  net_.send(0, 1, mk(3));
  sim_.run();
  ASSERT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[1][0].clock_ts, 3u);
}

TEST_F(SimTransportTest, CrashedSenderDropsOutbound) {
  net_.crash(0);
  net_.send(0, 1, mk(1));
  sim_.run();
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(SimTransportTest, PartitionBlocksBothDirections) {
  net_.set_partitioned(0, 1, true);
  net_.send(0, 1, mk(1));
  net_.send(1, 0, mk(2));
  net_.send(0, 2, mk(3));  // unaffected link
  sim_.run();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_TRUE(received_[0].empty());
  EXPECT_EQ(received_[2].size(), 1u);
  net_.set_partitioned(0, 1, false);
  net_.send(0, 1, mk(4));
  sim_.run();
  EXPECT_EQ(received_[1].size(), 1u);
}

TEST_F(SimTransportTest, CountsTraffic) {
  net_.send(0, 1, mk(1));
  net_.send(0, 2, mk(2));
  sim_.run();
  EXPECT_EQ(net_.messages_sent(), 2u);
  EXPECT_EQ(net_.messages_delivered(), 2u);
}

TEST(SimTransportJitter, FifoHoldsUnderJitter) {
  Simulator sim;
  SimTransport::Options opt;
  opt.jitter_ms = 5.0;
  SimTransport net(sim, LatencyMatrix::uniform(2, 10.0), Rng(3), opt);
  std::vector<Tick> got;
  net.register_replica(0, [](const Message&) {});
  net.register_replica(1, [&](const Message& m) { got.push_back(m.clock_ts); });
  for (Tick i = 0; i < 200; ++i) {
    Message m;
    m.type = MsgType::kClockTime;
    m.clock_ts = i;
    net.send(0, 1, m);
  }
  sim.run();
  ASSERT_EQ(got.size(), 200u);
  for (Tick i = 0; i < 200; ++i) EXPECT_EQ(got[i], i);
}

// Randomised traffic over all 5x5 links under jitter, duplication, one
// healed outage and a mid-flight crash. Every delivery must run in global
// (arrival time, wire order) order, where wire order is the order in which
// the transport put messages on the wire: the send() call, or the heal for
// a message held back by the outage. Each link must stay FIFO, and every
// message sent must be accounted for as delivered or dropped.
void check_transport_ordering(const LatencyMatrix& matrix, double jitter_ms,
                              std::uint64_t seed) {
  constexpr ReplicaId kN = 5;
  constexpr ReplicaId kOutFrom = 1, kOutTo = 2, kCrashed = 4;
  Simulator sim;
  SimTransport::Options opt;
  opt.jitter_ms = jitter_ms;
  SimTransport net(sim, matrix, Rng(seed), opt);
  net.set_dup_prob(0.1);

  struct Sent {
    ReplicaId from, to;
    std::uint64_t wire;  // position in wire order
  };
  struct Got {
    Tick at;
    std::uint64_t wire;
    std::uint64_t id;
  };
  std::vector<Sent> sent;
  std::vector<Got> got;
  std::vector<std::uint64_t> held;  // ids queued behind the outage
  std::uint64_t next_wire = 0;
  bool outage = false;
  for (ReplicaId r = 0; r < kN; ++r) {
    net.register_replica(r, [&, r](const Message& m) {
      const Sent& s = sent.at(m.clock_ts);
      EXPECT_EQ(s.to, r);
      EXPECT_EQ(s.from, m.from);
      got.push_back(Got{sim.now(), s.wire, m.clock_ts});
    });
  }

  Rng traffic(seed + 1);
  for (int e = 0; e < 400; ++e) {
    const Tick at = ms_to_us(traffic.uniform(0.0, 500.0));
    const auto from = static_cast<ReplicaId>(traffic.uniform_int(0, kN - 1));
    const auto burst = traffic.uniform_int(1, 3);
    sim.at(at, [&, from, burst] {
      for (ReplicaId to = 0; to < kN; ++to) {
        for (std::uint64_t k = 0; k < burst; ++k) {
          Message m;
          m.type = MsgType::kClockTime;
          m.from = from;
          m.clock_ts = sent.size();
          if (outage && from == kOutFrom && to == kOutTo && !net.crashed(from) &&
              !net.crashed(to)) {
            held.push_back(sent.size());
          }
          sent.push_back(Sent{from, to, next_wire++});
          net.send(from, to, m);
        }
      }
    });
  }
  sim.at(ms_to_us(100.0), [&] {
    outage = true;
    net.set_link_outage(kOutFrom, kOutTo, true);
  });
  sim.at(ms_to_us(300.0), [&] {
    outage = false;
    // The heal puts the backlog on the wire, in FIFO order, right now.
    for (std::uint64_t id : held) sent[id].wire = next_wire++;
    net.set_link_outage(kOutFrom, kOutTo, false);
  });
  // Crash while messages to and from the replica are in flight.
  sim.at(ms_to_us(250.0), [&] { net.crash(kCrashed); });
  sim.at(ms_to_us(400.0), [&] { net.recover(kCrashed); });
  sim.run();

  ASSERT_FALSE(held.empty());
  ASSERT_GT(net.messages_dropped(), 0u);
  TransportStats st = net.stats();
  ASSERT_GT(st.messages_duplicated, 0u);
  EXPECT_EQ(st.messages_sent, sent.size());
  EXPECT_EQ(st.messages_delivered, got.size());
  EXPECT_EQ(st.messages_sent + st.messages_duplicated,
            st.messages_delivered + st.messages_dropped);

  for (std::size_t i = 1; i < got.size(); ++i) {
    ASSERT_LE(std::tie(got[i - 1].at, got[i - 1].wire),
              std::tie(got[i].at, got[i].wire))
        << "delivery " << i << " out of (arrival, wire order)";
  }
  // Per link: wire order never goes back (a duplicate repeats its
  // original's), and arrivals strictly increase.
  std::vector<std::vector<const Got*>> per_link(kN * kN);
  for (const Got& g : got) {
    const Sent& s = sent[g.id];
    per_link[s.from * kN + s.to].push_back(&g);
  }
  for (const auto& link : per_link) {
    for (std::size_t i = 1; i < link.size(); ++i) {
      EXPECT_LE(link[i - 1]->wire, link[i]->wire);
      EXPECT_LT(link[i - 1]->at, link[i]->at);
    }
  }
}

TEST(SimTransportOrdering, TieHeavyUniformLinks) {
  // Microsecond jitter on equal links: many deliveries share an arrival
  // time, so the wire-order tie-break is exercised constantly.
  check_transport_ordering(LatencyMatrix::uniform(5, 10.0), 0.003, 11);
}

TEST(SimTransportOrdering, ReorderingWanLinks) {
  // Wide jitter on unequal links: later sends often overtake earlier ones
  // across links, never within one.
  check_transport_ordering(ec2_matrix().submatrix({0, 1, 2, 3, 4}), 5.0, 12);
}

TEST(SimClock, AppliesSkew) {
  Simulator sim;
  SimClock c([&] { return sim.now(); }, /*skew_us=*/1500.0);
  sim.run_until(1000);
  EXPECT_EQ(c.now_us(), 2500u);
}

TEST(SimClock, StrictlyIncreasingAtFixedSimTime) {
  Simulator sim;
  SimClock c([&] { return sim.now(); });
  const Tick a = c.now_us();
  const Tick b = c.now_us();
  const Tick d = c.now_us();
  EXPECT_LT(a, b);
  EXPECT_LT(b, d);
}

TEST(SimClock, NegativeSkewClampsAtZeroAndStaysMonotone) {
  Simulator sim;
  SimClock c([&] { return sim.now(); }, /*skew_us=*/-5000.0);
  const Tick a = c.now_us();
  sim.run_until(1000);
  const Tick b = c.now_us();
  EXPECT_LT(a, b);
}

TEST(SimClock, DriftScalesTime) {
  Simulator sim;
  SimClock fast([&] { return sim.now(); }, 0.0, 1.5);
  SimClock slow([&] { return sim.now(); }, 0.0, 0.5);
  sim.run_until(1'000'000);
  EXPECT_NEAR(static_cast<double>(fast.now_us()), 1'500'000.0, 2.0);
  EXPECT_NEAR(static_cast<double>(slow.now_us()), 500'000.0, 2.0);
  EXPECT_EQ(fast.local_delay_to_sim(1500), 1000u);
  EXPECT_EQ(slow.local_delay_to_sim(500), 1000u);
}

TEST(SimClock, RejectsBadArgs) {
  EXPECT_THROW(SimClock(nullptr), std::invalid_argument);
  Simulator sim;
  EXPECT_THROW(SimClock([&] { return sim.now(); }, 0.0, 0.0), std::invalid_argument);
}

TEST(SystemClock, MonotoneAndOffset) {
  SystemClock a;
  SystemClock b(1'000'000);
  const Tick ta = a.now_us();
  const Tick tb = b.now_us();
  EXPECT_GT(tb, ta);  // +1s offset dominates
  EXPECT_LT(a.now_us() - ta, 1'000'000u);
  const Tick t1 = a.now_us();
  const Tick t2 = a.now_us();
  EXPECT_LT(t1, t2);
}

}  // namespace
}  // namespace crsm
