// Tests for the SimWorld lifecycle: crash/restart semantics, timer
// invalidation across generations, checkpoint durability, file-backed logs,
// the log bound under the checkpoint cadence and the execution-trace opt-out.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "clockrsm/clock_rsm.h"
#include "storage/replica_storage.h"
#include "test_util.h"

namespace crsm {
namespace {

using test::kv_factory;
using test::kv_put;
using test::world_opts;

SimWorld::ProtocolFactory factory3() { return clock_rsm_factory(3); }

TEST(SimWorld, CrashStopsDeliveryAndTimers) {
  SimWorld w(world_opts(LatencyMatrix::uniform(3, 10.0)), factory3(), kv_factory());
  w.start();
  w.submit(0, kv_put(1, 1, "a", "1"));
  w.sim().run_until(ms_to_us(200.0));
  ASSERT_EQ(w.execution(2).size(), 1u);

  w.crash(2);
  EXPECT_TRUE(w.crashed(2));
  w.submit(0, kv_put(1, 2, "b", "2"));
  w.sim().run_until(ms_to_us(2'000.0));
  EXPECT_EQ(w.execution(2).size(), 1u) << "crashed replica must not execute";
}

TEST(SimWorld, RestartOfLiveReplicaThrows) {
  SimWorld w(world_opts(LatencyMatrix::uniform(3, 10.0)), factory3(), kv_factory());
  w.start();
  EXPECT_THROW(w.restart(0), std::logic_error);
}

TEST(SimWorld, SubmitToCrashedReplicaIsDropped) {
  SimWorld w(world_opts(LatencyMatrix::uniform(3, 10.0)), factory3(), kv_factory());
  w.start();
  w.crash(1);
  w.submit(1, kv_put(1, 1, "a", "1"));
  w.sim().run_until(ms_to_us(1'000.0));
  EXPECT_TRUE(w.execution(0).empty());
}

TEST(SimWorld, GenerationFencesStaleTimersAcrossRestart) {
  // A CLOCKTIME timer armed before the crash must not fire into the new
  // protocol instance after restart.
  SimWorld w(world_opts(LatencyMatrix::uniform(3, 10.0)), factory3(), kv_factory());
  w.start();
  w.sim().run_until(ms_to_us(20.0));
  w.crash(2);
  w.restart(2);  // new instance arms its own timers
  w.sim().run_until(ms_to_us(500.0));
  // If stale timers leaked, the old instance's lambdas would touch freed
  // state; surviving this run (under ASan in CI) plus continued liveness is
  // the assertion.
  w.submit(0, kv_put(1, 1, "k", "v"));
  w.sim().run_until(ms_to_us(1'000.0));
  EXPECT_EQ(w.execution(0).size(), 1u);
  EXPECT_EQ(w.execution(2).size(), 1u);
}

TEST(SimWorld, CheckpointSurvivesCrash) {
  SimWorld w(world_opts(LatencyMatrix::uniform(3, 10.0)), factory3(), kv_factory());
  w.start();
  for (int i = 0; i < 5; ++i) w.submit(0, kv_put(1, i + 1, "k", std::to_string(i)));
  w.sim().run_until(ms_to_us(500.0));
  auto& p = static_cast<ClockRsmReplica&>(w.protocol(1));
  w.take_checkpoint(1, p.last_commit_ts(), p.epoch());
  ASSERT_TRUE(w.has_checkpoint(1));
  w.crash(1);
  EXPECT_TRUE(w.has_checkpoint(1));  // durable
  w.restart(1);
  w.sim().run_until(ms_to_us(600.0));
  EXPECT_EQ(w.state_machine(1).state_digest(), w.state_machine(0).state_digest());
}

TEST(SimWorld, FileBackedLogsPersistOnDisk) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("crsm_world_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  {
    SimWorldOptions o = world_opts(LatencyMatrix::uniform(3, 10.0));
    o.log_dir = dir.string();
    SimWorld w(o, factory3(), kv_factory());
    w.start();
    w.submit(0, kv_put(1, 1, "persisted", "yes"));
    w.sim().run_until(ms_to_us(500.0));
    ASSERT_EQ(w.execution(0).size(), 1u);
    ASSERT_TRUE(std::filesystem::exists(dir / "replica-0" / "wal.log"));
    EXPECT_GT(std::filesystem::file_size(dir / "replica-0" / "wal.log"), 0u);
  }
  // A brand-new world over the same directory replays the old logs.
  {
    SimWorldOptions o = world_opts(LatencyMatrix::uniform(3, 10.0));
    o.log_dir = dir.string();
    SimWorld w(o, factory3(), kv_factory());
    w.start();  // ClockRsmReplica::start replays each replica's file log
    for (ReplicaId r = 0; r < 3; ++r) {
      EXPECT_EQ(w.execution(r).size(), 1u) << "replica " << r;
    }
  }
  std::filesystem::remove_all(dir);
}

// Submits `count` puts, each to a key of its own (so losing any command
// shows in the digest), round-robin over `homes` in waves of 300 with 100 ms
// of simulated time per wave. After every wave each live replica's log must
// stay within the checkpoint window: the entries since the last checkpoint
// (a PREPARE and a COMMIT mark each, at most 2 * checkpoint_every records)
// plus the prepares still pending.
void put_waves(SimWorld& w, const std::vector<ReplicaId>& homes,
               std::uint64_t first, std::uint64_t count) {
  const std::uint64_t window = 2 * StorageOptions{}.checkpoint_every;
  for (std::uint64_t n = first; n < first + count;) {
    for (int k = 0; k < 300 && n < first + count; ++k, ++n) {
      w.submit(homes[n % homes.size()], kv_put(1, n + 1, "k" + std::to_string(n), "v"));
    }
    w.sim().run_until(w.sim().now() + ms_to_us(100.0));
    for (ReplicaId r = 0; r < w.num_replicas(); ++r) {
      if (w.crashed(r)) continue;
      const auto& p = static_cast<ClockRsmReplica&>(w.protocol(r));
      ASSERT_LE(w.log(r).records().size(), window + p.pending_count())
          << "replica " << r << " after command " << n;
    }
  }
}

TEST(SimWorld, LogStaysBoundedPastCheckpointCadenceAndCatchupShipsCheckpoint) {
  SimWorld w(world_opts(LatencyMatrix::uniform(3, 10.0)),
             clock_rsm_factory(3, ClockRsmOptions{}), kv_factory());
  w.start();
  put_waves(w, {0, 1, 2}, 0, 25'000);
  w.sim().run_until(w.sim().now() + ms_to_us(500.0));
  for (ReplicaId r = 0; r < 3; ++r) {
    EXPECT_TRUE(w.has_checkpoint(r)) << "replica " << r;
    EXPECT_EQ(w.execution(r).size(), 25'000u) << "replica " << r;
    EXPECT_EQ(w.state_machine(r).state_digest(), w.state_machine(0).state_digest())
        << "replica " << r;
  }

  // Replica 2 stops hearing its peers: their messages to it are dropped.
  // Its CLOCKTIMEs still reach them, so they keep committing without it and
  // checkpoint past everything it has; then it crashes. (Crashing it first
  // would stall them: without reconfiguration a commit waits for every
  // replica's clock.)
  w.network().set_link_blocked(0, 2, true);
  w.network().set_link_blocked(1, 2, true);
  put_waves(w, {0, 1}, 25'000, 12'000);
  w.sim().run_until(w.sim().now() + ms_to_us(500.0));
  ASSERT_EQ(w.execution(0).size(), 37'000u);
  ASSERT_EQ(w.execution(2).size(), 25'000u);
  w.crash(2);
  w.network().clear_faults();

  // The peers' logs no longer hold what replica 2 is missing: its catch-up
  // must install a peer's checkpoint, then fetch the log suffix above it.
  w.restart(2);
  w.sim().run_until(w.sim().now() + ms_to_us(2'000.0));
  EXPECT_EQ(w.state_machine(2).state_digest(), w.state_machine(0).state_digest());
  EXPECT_FALSE(static_cast<ClockRsmReplica&>(w.protocol(2)).catching_up());

  // It then commits new commands with its peers.
  put_waves(w, {0, 1, 2}, 37'000, 300);
  w.sim().run_until(w.sim().now() + ms_to_us(500.0));
  for (ReplicaId r = 0; r < 3; ++r) {
    EXPECT_EQ(w.state_machine(r).state_digest(), w.state_machine(0).state_digest())
        << "replica " << r;
  }
}

// A replica restarting under load catches up while its peers keep
// proposing. Through every simulated millisecond of the catch-up, its
// pending runs hold every PREPARE it has logged above its commit bound,
// which is what lets a catch-up reply tell what is already logged.
TEST(SimWorld, CatchupPendingRunsHoldEveryLoggedPrepareAboveTheCommitBound) {
  SimWorld w(world_opts(LatencyMatrix::uniform(3, 10.0), 3),
             clock_rsm_factory(3, ClockRsmOptions{}), kv_factory());
  w.start();
  std::uint64_t n = 0;
  const auto load = [&](double ms) {
    const Tick until = w.sim().now() + ms_to_us(ms);
    while (w.sim().now() < until) {
      for (ReplicaId r = 0; r < 2; ++r) {
        ++n;
        w.submit(r, kv_put(1, n, "k" + std::to_string(n), "v"));
      }
      w.sim().run_until(w.sim().now() + ms_to_us(1.0));
    }
  };
  load(200.0);
  w.crash(2);
  load(150.0);  // the survivors stall, each holding every new command
  w.restart(2);
  auto& p = static_cast<ClockRsmReplica&>(w.protocol(2));
  ASSERT_TRUE(p.catching_up());
  int steps = 0;
  while (p.catching_up() && steps < 5'000) {
    ++steps;
    ++n;
    w.submit(0, kv_put(1, n, "k" + std::to_string(n), "v"));
    w.sim().run_until(w.sim().now() + ms_to_us(1.0));
    if (!p.catching_up()) break;
    const LogMirror& log = w.log(2).records();
    std::size_t above = 0;
    for (auto it = log.begin(); it != log.end(); ++it) {
      if (it.type() != LogType::kPrepare || it.ts() <= p.last_commit_ts()) continue;
      ++above;
      ASSERT_TRUE(p.is_pending(it.ts()))
          << it.ts().to_string() << " after " << steps << " ms of catch-up";
    }
    EXPECT_LE(above, p.pending_count());
  }
  EXPECT_FALSE(p.catching_up());
  EXPECT_GT(steps, 1);
  w.sim().run_until(w.sim().now() + ms_to_us(1'000.0));
  for (ReplicaId r = 0; r < 3; ++r) {
    EXPECT_EQ(w.execution(r).size(), w.execution(0).size()) << "replica " << r;
    EXPECT_EQ(w.state_machine(r).state_digest(), w.state_machine(0).state_digest())
        << "replica " << r;
  }
}

// Turning the execution trace off changes nothing else: on the same seed
// the commit and read hooks see exactly the same sequences.
TEST(SimWorld, ExecutionTraceOptOutKeepsHookSequences) {
  using Event = std::tuple<ReplicaId, ClientId, std::uint64_t, Timestamp, std::string>;
  auto run = [](bool record) {
    SimWorldOptions o = world_opts(LatencyMatrix::uniform(3, 10.0), 9);
    o.clock_skew_ms = 1.0;
    o.jitter_ms = 0.5;
    o.record_execution = record;
    SimWorld w(o, factory3(), kv_factory());
    std::vector<Event> commits;
    std::vector<Event> reads;
    w.set_commit_hook([&](ReplicaId r, const Command& c, Timestamp ts, bool local) {
      commits.emplace_back(r, c.client, c.seq, ts, local ? "local" : "");
    });
    w.set_read_hook(
        [&](ReplicaId r, const Command& c, Timestamp ts, std::string_view out) {
          reads.emplace_back(r, c.client, c.seq, ts, std::string(out));
        });
    w.start();
    for (std::uint64_t i = 0; i < 60; ++i) {
      const auto home = static_cast<ReplicaId>(i % 3);
      w.submit(home, kv_put(1, i + 1, "k" + std::to_string(i % 7), std::to_string(i)));
      w.submit_read(home, test::kv_get(2, i + 1, "k" + std::to_string(i % 7)));
      w.sim().run_until(w.sim().now() + ms_to_us(7.0));
    }
    w.sim().run_until(w.sim().now() + ms_to_us(1'000.0));
    for (ReplicaId r = 0; r < 3; ++r) {
      EXPECT_EQ(w.execution(r).size(), record ? 60u : 0u) << "replica " << r;
    }
    return std::make_pair(commits, reads);
  };
  const auto traced = run(true);
  const auto untraced = run(false);
  EXPECT_EQ(traced.first.size(), 180u);
  EXPECT_EQ(traced.second.size(), 60u);
  EXPECT_EQ(untraced.first, traced.first);
  EXPECT_EQ(untraced.second, traced.second);
}

TEST(SimWorld, ZeroReplicaWorldRejected) {
  SimWorldOptions o;
  o.matrix = LatencyMatrix(0);
  EXPECT_THROW(SimWorld(o, factory3(), kv_factory()), std::invalid_argument);
}

TEST(SimWorld, MessageAccountingTracksDrops) {
  SimWorld w(world_opts(LatencyMatrix::uniform(3, 10.0)), factory3(), kv_factory());
  w.start();
  w.crash(2);
  w.submit(0, kv_put(1, 1, "a", "1"));
  w.sim().run_until(ms_to_us(1'000.0));
  EXPECT_GT(w.network().messages_dropped(), 0u);
}

}  // namespace
}  // namespace crsm
