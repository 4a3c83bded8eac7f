// Unit tests for the pluggable storage seam: GroupCommitLog fsync batching
// and ReplicaStorage's checkpoint/recovery lifecycle.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>

#include "common/message.h"
#include "kv/kv_store.h"
#include "storage/replica_storage.h"

namespace crsm {
namespace {

Command cmd(std::uint64_t seq) {
  Command c;
  c.client = 7;
  c.seq = seq;
  KvRequest r;
  r.op = KvOp::kPut;
  r.key = "k" + std::to_string(seq);
  r.value = "v" + std::to_string(seq);
  c.payload = r.encode();
  return c;
}

// CommandLog stub counting inner sync() calls.
class CountingLog final : public CommandLog {
 public:
  void append(const LogRecord& r) override { records_.append(r); }
  void sync() override { ++syncs; }
  [[nodiscard]] const LogMirror& records() const override { return records_; }
  void remove_uncommitted_above(
      Timestamp bound, const std::function<bool(const Timestamp&)>& keep) override {
    records_.remove_uncommitted_above(bound, keep);
  }
  void truncate_prefix(Timestamp upto) override { records_.truncate_prefix(upto); }

  int syncs = 0;

 private:
  LogMirror records_;
};

TEST(GroupCommitLog, DeferredModeBatchesSyncsUntilFlush) {
  auto counting = std::make_unique<CountingLog>();
  CountingLog* inner = counting.get();
  GroupCommitLog log(std::move(counting), /*defer_sync=*/true);

  for (std::uint64_t i = 1; i <= 10; ++i) {
    log.append(LogRecord::prepare(Timestamp{i, 0}, cmd(i)));
    log.sync();  // the protocol's per-PREPARE durability request
  }
  EXPECT_EQ(inner->syncs, 0) << "deferred mode must not sync inline";
  EXPECT_TRUE(log.sync_pending());

  EXPECT_EQ(log.flush(), 10u);  // one fsync covers the whole batch
  EXPECT_EQ(inner->syncs, 1);
  EXPECT_FALSE(log.sync_pending());
  EXPECT_EQ(log.flush(), 0u);  // idempotent: nothing owed
  EXPECT_EQ(inner->syncs, 1);

  StorageStats s;
  log.fill_stats(&s);
  EXPECT_EQ(s.appends, 10u);
  EXPECT_EQ(s.sync_requests, 10u);
  EXPECT_EQ(s.syncs, 1u);
  EXPECT_EQ(s.max_batch, 10u);
}

TEST(GroupCommitLog, PassThroughModeSyncsInline) {
  auto counting = std::make_unique<CountingLog>();
  CountingLog* inner = counting.get();
  GroupCommitLog log(std::move(counting), /*defer_sync=*/false);
  log.append(LogRecord::prepare(Timestamp{1, 0}, cmd(1)));
  log.sync();
  EXPECT_EQ(inner->syncs, 1);
  EXPECT_FALSE(log.sync_pending());
}

class ReplicaStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("crsm_storage_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  StorageOptions durable(std::uint64_t checkpoint_every = 0) const {
    StorageOptions o;
    o.dir = dir_.string();
    o.checkpoint_every = checkpoint_every;
    return o;
  }

  std::filesystem::path dir_;
};

TEST_F(ReplicaStorageTest, VolatileDefaultsToMemLogNoRecovery) {
  ReplicaStorage s{StorageOptions{}};
  EXPECT_FALSE(s.durable());
  EXPECT_FALSE(s.recovering());
  EXPECT_EQ(s.recovery_floor(), kZeroTimestamp);
  s.log().append(LogRecord::prepare(Timestamp{1, 0}, cmd(1)));
  s.log().sync();  // pass-through: nothing pending afterwards
  EXPECT_FALSE(s.sync_pending());
  EXPECT_TRUE(s.encoded_checkpoint().empty());
}

TEST_F(ReplicaStorageTest, DurableLogPersistsAndFlagsRecovery) {
  {
    ReplicaStorage s{durable()};
    EXPECT_TRUE(s.durable());
    EXPECT_FALSE(s.recovering()) << "fresh directory is not a restart";
    s.log().append(LogRecord::prepare(Timestamp{1, 0}, cmd(1)));
    s.log().append(LogRecord::commit(Timestamp{1, 0}));
    s.log().sync();
    EXPECT_TRUE(s.sync_pending()) << "durable log defers by default";
    s.flush();
    EXPECT_FALSE(s.sync_pending());
  }
  ReplicaStorage reopened{durable()};
  EXPECT_TRUE(reopened.recovering());
  ASSERT_EQ(reopened.log().records().size(), 2u);
  EXPECT_EQ(reopened.log().records().to_vector()[0].cmd, cmd(1));
}

TEST_F(ReplicaStorageTest, CheckpointEveryNTruncatesAndRestores) {
  KvStore sm;
  {
    ReplicaStorage s{durable(/*checkpoint_every=*/4)};
    for (std::uint64_t i = 1; i <= 10; ++i) {
      const Timestamp ts{i, 0};
      s.log().append(LogRecord::prepare(ts, cmd(i)));
      s.log().append(LogRecord::commit(ts));
      sm.apply(cmd(i));
      s.note_commit(sm, ts, /*applied=*/i);
    }
    s.flush();
    // Two checkpoints fired (at 4 and 8); the covered prefix is gone.
    EXPECT_EQ(s.recovery_floor(), (Timestamp{8, 0}));
    for (const LogRecord& r : s.log().records()) {
      EXPECT_GT(r.ts, (Timestamp{8, 0}));
    }
    EXPECT_EQ(s.stats().checkpoints, 2u);
    EXPECT_EQ(s.checkpoint()->applied, 8u);
    EXPECT_FALSE(s.encoded_checkpoint().empty());
  }

  // A restart restores the checkpoint into a fresh state machine; replaying
  // the remaining log suffix on top reproduces the full state.
  ReplicaStorage reopened{durable(4)};
  EXPECT_TRUE(reopened.recovering());
  EXPECT_EQ(reopened.recovery_floor(), (Timestamp{8, 0}));
  EXPECT_EQ(reopened.checkpoint()->applied, 8u);
  KvStore recovered;
  ASSERT_TRUE(reopened.restore_into(recovered));
  for (const LogRecord& r : reopened.log().records()) {
    if (r.type == LogType::kPrepare && r.ts > reopened.recovery_floor()) {
      recovered.apply(r.cmd);
    }
  }
  EXPECT_EQ(recovered.state_digest(), sm.state_digest());
}

TEST_F(ReplicaStorageTest, InstallCheckpointFromPeerBlob) {
  // Build the "peer": state + checkpoint blob covering ts 5.
  KvStore peer_sm;
  for (std::uint64_t i = 1; i <= 5; ++i) peer_sm.apply(cmd(i));
  const Checkpoint cp = take_checkpoint(peer_sm, Timestamp{5, 0}, 0);
  const std::string blob = cp.encode();

  ReplicaStorage s{durable()};
  s.log().append(LogRecord::prepare(Timestamp{2, 0}, cmd(2)));
  s.log().append(LogRecord::commit(Timestamp{2, 0}));
  KvStore sm;
  s.install_checkpoint(blob, sm);
  EXPECT_EQ(sm.state_digest(), peer_sm.state_digest());
  EXPECT_EQ(s.recovery_floor(), (Timestamp{5, 0}));
  EXPECT_TRUE(s.log().records().empty()) << "covered prefix truncated";

  // The installed checkpoint is persisted: the next boot starts from it.
  ReplicaStorage reopened{durable()};
  EXPECT_TRUE(reopened.recovering());
  EXPECT_EQ(reopened.recovery_floor(), (Timestamp{5, 0}));
  KvStore sm2;
  ASSERT_TRUE(reopened.restore_into(sm2));
  EXPECT_EQ(sm2.state_digest(), peer_sm.state_digest());
}

// Node memory is O(cadence + pending + state), not O(history): across many
// checkpoint cadences the log never holds more than one cadence of committed
// entries (a PREPARE and a COMMIT mark each) plus the PREPAREs still
// pending, and the WAL file never holds more than those records. PREPAREs
// run kPending ahead of the commit point, as they do under pipelined load.
void drive_past_many_checkpoints(ReplicaStorage& s, const std::string& wal) {
  constexpr std::uint64_t kCadence = 50;
  constexpr std::uint64_t kPending = 8;
  constexpr std::uint64_t kCommits = 20 * kCadence;
  constexpr std::size_t kBound = 2 * kCadence + kPending;
  std::size_t max_frame = 0;  // largest record as framed in the WAL
  const auto prepare = [&](std::uint64_t i) {
    const LogRecord r = LogRecord::prepare(Timestamp{i, 0}, cmd(i));
    std::string body;
    encode_log_record(r, &body);
    max_frame = std::max(max_frame, body.size() + 10);  // + varint length
    s.log().append(r);
  };
  KvStore sm;
  for (std::uint64_t i = 1; i <= kPending; ++i) prepare(i);
  for (std::uint64_t i = 1; i <= kCommits; ++i) {
    prepare(i + kPending);
    s.log().sync();
    const Timestamp ts{i, 0};
    s.log().append(LogRecord::commit(ts));
    sm.apply(cmd(i));
    s.note_commit(sm, ts, /*applied=*/i);
    s.flush();
    ASSERT_LE(s.log().size(), kBound) << "after commit " << i;
    if (!wal.empty()) {
      ASSERT_LE(std::filesystem::file_size(wal), kBound * max_frame)
          << "after commit " << i;
    }
  }
  EXPECT_EQ(s.stats().checkpoints, kCommits / kCadence);
  EXPECT_EQ(s.recovery_floor(), (Timestamp{kCommits, 0}));
  EXPECT_EQ(s.log().size(), kPending) << "only the pending PREPAREs remain";
  ASSERT_TRUE(s.checkpoint().has_value());
  EXPECT_EQ(s.checkpoint()->applied, kCommits);
  KvStore restored;
  restored.restore(s.checkpoint()->state);
  EXPECT_EQ(restored.state_digest(), sm.state_digest());
}

TEST_F(ReplicaStorageTest, CheckpointingIsOnByDefault) {
  EXPECT_EQ(StorageOptions{}.checkpoint_every, 10000u);
}

TEST_F(ReplicaStorageTest, DurableLogStaysBoundedAcrossCheckpoints) {
  StorageOptions o = durable(/*checkpoint_every=*/50);
  ReplicaStorage s{o};
  drive_past_many_checkpoints(s, o.dir + "/wal.log");
}

TEST_F(ReplicaStorageTest, VolatileLogStaysBoundedAcrossCheckpoints) {
  StorageOptions o;
  o.checkpoint_every = 50;
  ReplicaStorage s{o};
  drive_past_many_checkpoints(s, /*wal=*/"");
  // The checkpoint lives in memory only, and serves catch-up like a durable
  // node's.
  EXPECT_FALSE(std::filesystem::exists(dir_));
  EXPECT_FALSE(s.encoded_checkpoint().empty());
  EXPECT_EQ(Checkpoint::decode(s.encoded_checkpoint()), *s.checkpoint());
}

}  // namespace
}  // namespace crsm
