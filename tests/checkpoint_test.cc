// Tests for checkpointing (Section V-B): snapshot, log truncation, file
// persistence, and integration with the simulated cluster. Recovery from
// checkpoint + log suffix is ReplicaCore's boot (replica_core_test).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "clockrsm/clock_rsm.h"
#include "common/codec.h"
#include "kv/kv_store.h"
#include "storage/checkpoint.h"
#include "test_util.h"

namespace crsm {
namespace {

using test::expect_agreement;
using test::kv_factory;
using test::kv_put;
using test::world_opts;

KvStore store_with(const std::vector<std::pair<std::string, std::string>>& kvs) {
  KvStore kv;
  std::uint64_t seq = 0;
  for (const auto& [k, v] : kvs) {
    kv.apply(kv_put(1, ++seq, k, v));
  }
  return kv;
}

TEST(KvSnapshot, RoundTripPreservesStateAndDigest) {
  KvStore a = store_with({{"x", "1"}, {"y", "2"}, {"z", "3"}});
  KvStore b;
  b.restore(a.snapshot());
  EXPECT_EQ(b.state_digest(), a.state_digest());
  ASSERT_NE(b.get("y"), nullptr);
  EXPECT_EQ(*b.get("y"), "2");
  EXPECT_EQ(b.size(), 3u);
}

TEST(KvSnapshot, DeterministicAcrossInsertionOrders) {
  KvStore a = store_with({{"x", "1"}, {"y", "2"}});
  KvStore b = store_with({{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(KvSnapshot, RestoreReplacesExistingState) {
  KvStore a = store_with({{"only", "this"}});
  KvStore b = store_with({{"stale", "entry"}, {"other", "junk"}});
  b.restore(a.snapshot());
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.get("stale"), nullptr);
}

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  const KvStore kv = store_with({{"a", "b"}});
  const Checkpoint cp = take_checkpoint(kv, Timestamp{99, 2}, 7, /*applied=*/41);
  const Checkpoint rt = Checkpoint::decode(cp.encode());
  EXPECT_EQ(rt, cp);
  EXPECT_EQ(rt.last_applied, (Timestamp{99, 2}));
  EXPECT_EQ(rt.epoch, 7u);
  EXPECT_EQ(rt.applied, 41u);
}

TEST(Checkpoint, DecodesBlobWithoutAppliedCount) {
  // Checkpoints written before the applied count existed end after `state`;
  // a restart after upgrade must still read them (count 0).
  const KvStore kv = store_with({{"a", "b"}});
  std::string legacy;
  Encoder e(&legacy);
  e.timestamp(Timestamp{5, 1});
  e.var(3);
  e.bytes(kv.snapshot());
  const Checkpoint rt = Checkpoint::decode(legacy);
  EXPECT_EQ(rt.last_applied, (Timestamp{5, 1}));
  EXPECT_EQ(rt.epoch, 3u);
  EXPECT_EQ(rt.state, kv.snapshot());
  EXPECT_EQ(rt.applied, 0u);
  EXPECT_THROW((void)Checkpoint::decode(legacy + std::string(1, '\x01') + "x"),
               CodecError);
}

TEST(Checkpoint, TruncatesCoveredPrefix) {
  MemLog log;
  log.append(LogRecord::prepare(Timestamp{1, 0}, kv_put(1, 1, "a", "1")));
  log.append(LogRecord::commit(Timestamp{1, 0}));
  log.append(LogRecord::prepare(Timestamp{2, 1}, kv_put(1, 2, "b", "2")));
  log.append(LogRecord::commit(Timestamp{2, 1}));
  log.append(LogRecord::prepare(Timestamp{3, 0}, kv_put(1, 3, "c", "3")));

  const KvStore kv = store_with({{"a", "1"}, {"b", "2"}});
  const Checkpoint cp = take_checkpoint(kv, Timestamp{2, 1}, 0);
  truncate_covered_prefix(log, cp);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.records().to_vector()[0].ts, (Timestamp{3, 0}));
}

TEST(Checkpoint, FilePersistenceRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("crsm_cp_" + std::to_string(::getpid()));
  const KvStore kv = store_with({{"k", "v"}});
  const Checkpoint cp = take_checkpoint(kv, Timestamp{42, 1}, 3);
  write_checkpoint_file(path.string(), cp);
  const auto loaded = read_checkpoint_file(path.string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, cp);
  std::filesystem::remove(path);
  EXPECT_FALSE(read_checkpoint_file(path.string()).has_value());
}

// --- integration with the simulated cluster ---

SimWorld::ProtocolFactory crsm_factory(std::size_t n) {
  return clock_rsm_factory(n);
}

TEST(CheckpointIntegration, RestartFromCheckpointMatchesFullReplay) {
  SimWorld w(world_opts(LatencyMatrix::uniform(3, 10.0)), crsm_factory(3),
             kv_factory());
  w.start();
  for (int i = 0; i < 12; ++i) {
    w.submit(0, kv_put(1, i + 1, "k" + std::to_string(i % 4), std::to_string(i)));
  }
  w.sim().run_until(ms_to_us(1'000.0));
  ASSERT_EQ(w.execution(2).size(), 12u);
  const auto digest = w.state_machine(2).state_digest();

  auto& p2 = static_cast<ClockRsmReplica&>(w.protocol(2));
  w.take_checkpoint(2, p2.last_commit_ts(), p2.epoch());
  EXPECT_TRUE(w.has_checkpoint(2));
  EXPECT_TRUE(w.log(2).records().empty());  // fully covered

  w.crash(2);
  w.restart(2);
  w.sim().run_until(ms_to_us(1'100.0));
  // State restored from the snapshot, no replayed deliveries needed.
  EXPECT_EQ(w.state_machine(2).state_digest(), digest);
  EXPECT_TRUE(w.execution(2).empty());

  // The recovered replica keeps participating: new commands still commit.
  w.submit(2, kv_put(2, 1, "after", "cp"));
  w.sim().run_until(ms_to_us(2'000.0));
  EXPECT_EQ(w.execution(2).size(), 1u);
  EXPECT_EQ(w.execution(0).size(), 13u);
  EXPECT_EQ(w.state_machine(2).state_digest(), w.state_machine(0).state_digest());
}

TEST(CheckpointIntegration, CheckpointPlusLogSuffixRecovers) {
  SimWorld w(world_opts(LatencyMatrix::uniform(3, 10.0)), crsm_factory(3),
             kv_factory());
  w.start();
  for (int i = 0; i < 6; ++i) w.submit(0, kv_put(1, i + 1, "a", std::to_string(i)));
  w.sim().run_until(ms_to_us(500.0));
  auto& p2 = static_cast<ClockRsmReplica&>(w.protocol(2));
  w.take_checkpoint(2, p2.last_commit_ts(), p2.epoch());

  // More commands after the checkpoint land in the log suffix.
  for (int i = 6; i < 10; ++i) w.submit(0, kv_put(1, i + 1, "a", std::to_string(i)));
  w.sim().run_until(ms_to_us(1'000.0));
  ASSERT_EQ(w.execution(0).size(), 10u);
  const auto digest = w.state_machine(0).state_digest();

  w.crash(2);
  w.restart(2);
  w.sim().run_until(ms_to_us(1'200.0));
  EXPECT_EQ(w.state_machine(2).state_digest(), digest);
  EXPECT_EQ(w.execution(2).size(), 4u);  // only the suffix is re-delivered
}

TEST(CheckpointIntegration, LogPrefixActuallyShrinks) {
  SimWorld w(world_opts(LatencyMatrix::uniform(3, 10.0)), crsm_factory(3),
             kv_factory());
  w.start();
  for (int i = 0; i < 20; ++i) w.submit(0, kv_put(1, i + 1, "k", "v"));
  w.sim().run_until(ms_to_us(1'500.0));
  const std::size_t before = w.log(1).size();
  auto& p1 = static_cast<ClockRsmReplica&>(w.protocol(1));
  w.take_checkpoint(1, p1.last_commit_ts(), p1.epoch());
  EXPECT_LT(w.log(1).size(), before);
}

}  // namespace
}  // namespace crsm
