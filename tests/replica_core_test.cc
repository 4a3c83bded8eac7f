// ReplicaCore's contract, checked through a fake engine that implements only
// what an engine must (transport, clock, timers, the per-command hooks):
// a batch envelope splits into members that apply in envelope order, the
// executed count rises by one per member, the checkpoint decision comes
// once per delivered entry — after the whole batch — and an installed
// checkpoint resets the executed count, and a restart restores the boot
// checkpoint and replays only the log suffix above it. SimWorld and
// NodeRuntime both run this code, so the engine tests (sim_world_test,
// batch_test, durable_cluster_test) cover it end to end; these pin the
// rules themselves.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "clockrsm/clock_rsm.h"
#include "common/batch.h"
#include "harness/latency_experiment.h"
#include "kv/kv_store.h"
#include "rsm/replica_core.h"
#include "storage/checkpoint.h"
#include "test_util.h"

namespace crsm {
namespace {

using test::kv_get;
using test::kv_put;

// Records what the core hands the protocol; sends nothing.
class RecordingProtocol final : public ReplicaProtocol {
 public:
  void submit(Command cmd) override { submitted.push_back(std::move(cmd)); }
  void on_message(const Message& m) override { (void)m; }
  [[nodiscard]] std::string name() const override { return "recording"; }

  std::vector<Command> submitted;
};

struct Applied {
  std::uint64_t seq;
  Timestamp ts;
  std::uint32_t sub;
  bool local_origin;
  std::string output;
};

// An engine with no network, a counter for a clock and no timers.
class FakeEngine final : public ReplicaCore {
 public:
  explicit FakeEngine(std::uint64_t checkpoint_every,
                      std::size_t max_batch_cmds = 1)
      : ReplicaCore(/*id=*/0, max_batch_cmds, /*max_batch_bytes=*/0) {
    StorageOptions so;
    so.checkpoint_every = checkpoint_every;
    so.group_commit = false;
    set_storage(std::make_unique<ReplicaStorage>(std::move(so)));
    boot([] { return std::make_unique<KvStore>(); },
         [this](ProtocolEnv&, ReplicaId) {
           auto p = std::make_unique<RecordingProtocol>();
           proto = p.get();
           return p;
         });
  }
  // The restart path: boots Clock-RSM (replica 0 of 3) over the durable
  // state in `dir` and starts it, as NodeRuntime does. Sends go nowhere, so
  // the catch-up it begins never completes; what it replayed stays.
  explicit FakeEngine(const std::string& dir)
      : ReplicaCore(/*id=*/0, /*max_batch_cmds=*/1, /*max_batch_bytes=*/0) {
    StorageOptions so;
    so.dir = dir;
    so.checkpoint_every = 0;
    so.group_commit = false;
    set_storage(std::make_unique<ReplicaStorage>(std::move(so)));
    boot([] { return std::make_unique<KvStore>(); },
         clock_rsm_factory(3, ClockRsmOptions{}));
    protocol().start();
  }

  void send(ReplicaId to, Message m) override {
    (void)to;
    (void)m;
  }
  [[nodiscard]] Tick clock_now() override { return ++now_; }
  void schedule_after(Tick delay_us, std::function<void()> fn) override {
    (void)delay_us;
    (void)fn;
  }

  void on_applied(const Command& cmd, Timestamp ts, std::uint32_t sub,
                  bool local_origin, const std::string& output) override {
    applied.push_back({cmd.seq, ts, sub, local_origin, output});
  }
  void on_read(const Command& cmd, Timestamp read_ts,
               const std::string& output) override {
    (void)read_ts;
    reads.emplace_back(cmd.seq, output);
  }

  RecordingProtocol* proto = nullptr;
  std::vector<Applied> applied;
  std::vector<std::pair<std::uint64_t, std::string>> reads;

 private:
  Tick now_ = 0;
};

constexpr ClientId kClient = 7;

std::vector<Command> three_puts_to_one_key() {
  return {kv_put(kClient, 2, "k", "first"), kv_put(kClient, 3, "k", "second"),
          kv_put(kClient, 4, "k", "third")};
}

// One bare entry, then a 3-member envelope: with checkpoint_every = 2 the
// cadence falls due inside the envelope, at its first member. The decision
// must wait for the whole envelope.
TEST(ReplicaCore, EnvelopeAppliesInOrderAndCheckpointsAfterWholeBatch) {
  FakeEngine e(/*checkpoint_every=*/2);
  e.deliver(kv_put(kClient, 1, "a", "x"), Timestamp{10, 1}, false);
  ASSERT_EQ(e.executed(), 1u);
  ASSERT_EQ(e.storage().stats().checkpoints, 0u);

  const Timestamp env_ts{20, 1};
  e.deliver(make_batch(three_puts_to_one_key(), /*origin=*/1, /*counter=*/0),
            env_ts, /*local_origin=*/true);

  // Members apply in envelope order, each counted once, all at the
  // envelope's timestamp.
  EXPECT_EQ(e.executed(), 4u);
  ASSERT_EQ(e.applied.size(), 4u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const Applied& a = e.applied[1 + i];
    EXPECT_EQ(a.seq, 2u + i);
    EXPECT_EQ(a.sub, i);
    EXPECT_EQ(a.ts, env_ts);
    EXPECT_TRUE(a.local_origin);
  }
  EXPECT_EQ(e.state_machine().apply_read(kv_get(kClient, 9, "k")), "third");

  // Exactly one checkpoint, and it covers the whole envelope: its count and
  // its snapshot include the last member.
  EXPECT_EQ(e.storage().stats().checkpoints, 1u);
  const auto& cp = e.storage().checkpoint();
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->applied, 4u);
  EXPECT_EQ(cp->last_applied, env_ts);
  KvStore restored;
  restored.restore(cp->state);
  EXPECT_EQ(restored.state_digest(), e.state_machine().state_digest());
  EXPECT_EQ(e.recovery_floor(), env_ts);
}

TEST(ReplicaCore, InstallCheckpointResetsExecutedToItsCount) {
  FakeEngine source(/*checkpoint_every=*/2);
  source.deliver(kv_put(kClient, 1, "a", "x"), Timestamp{10, 1}, false);
  source.deliver(make_batch(three_puts_to_one_key(), 1, 0), Timestamp{20, 1},
                 false);
  const std::string blob = source.encoded_checkpoint();
  ASSERT_FALSE(blob.empty());

  FakeEngine target(/*checkpoint_every=*/0);
  for (std::uint64_t s = 1; s <= 7; ++s) {
    target.deliver(kv_put(kClient + 1, s, "b", "y"), Timestamp{s, 2}, false);
  }
  ASSERT_EQ(target.executed(), 7u);

  target.install_checkpoint(blob);
  EXPECT_EQ(target.executed(), 4u);
  EXPECT_EQ(target.state_machine().state_digest(),
            source.state_machine().state_digest());
  EXPECT_EQ(target.recovery_floor(), (Timestamp{20, 1}));
}

TEST(ReplicaCore, ReadsCountAndReachTheHook) {
  FakeEngine e(/*checkpoint_every=*/0);
  e.deliver(kv_put(kClient, 1, "k", "v"), Timestamp{10, 1}, true);
  e.deliver_read(kv_get(kClient, 2, "k"), Timestamp{10, 1});
  EXPECT_EQ(e.reads_served(), 1u);
  ASSERT_EQ(e.reads.size(), 1u);
  EXPECT_EQ(e.reads[0], (std::pair<std::uint64_t, std::string>{2, "v"}));
  EXPECT_EQ(e.executed(), 1u);  // a read is not an execution
}

TEST(ReplicaCore, EnqueueWriteSubmitsAtOnceWhenBatchingIsOff) {
  FakeEngine e(/*checkpoint_every=*/0, /*max_batch_cmds=*/1);
  e.enqueue_write(kv_put(kClient, 1, "k", "v"));
  e.enqueue_write(kv_put(kClient, 2, "k", "w"));
  ASSERT_EQ(e.proto->submitted.size(), 2u);
  EXPECT_FALSE(is_batch(e.proto->submitted[0]));
  EXPECT_FALSE(e.batch_pending());
  EXPECT_EQ(e.batch_stats().cmds, 2u);
  EXPECT_EQ(e.batch_stats().submissions, 2u);
}

TEST(ReplicaCore, EnqueueWriteBuffersUntilTheEngineCuts) {
  FakeEngine e(/*checkpoint_every=*/0, /*max_batch_cmds=*/8);
  for (const Command& c : three_puts_to_one_key()) e.enqueue_write(c);
  EXPECT_TRUE(e.proto->submitted.empty());
  EXPECT_TRUE(e.batch_pending());

  e.cut_batch();
  ASSERT_EQ(e.proto->submitted.size(), 1u);
  const Command& env = e.proto->submitted[0];
  ASSERT_TRUE(is_batch(env));
  EXPECT_EQ(split_batch(env).size(), 3u);
  EXPECT_EQ(e.batch_stats().cmds, 3u);
  EXPECT_EQ(e.batch_stats().submissions, 1u);

  // A crash drops the uncut buffer: nothing reaches the protocol.
  e.enqueue_write(kv_put(kClient, 5, "k", "lost"));
  e.drop_batch();
  e.cut_batch();
  EXPECT_EQ(e.proto->submitted.size(), 1u);
}

// Durable state a crashed replica left behind in a fresh directory: the
// checkpoint file (if any) and the WAL records, written with the same code
// the runtime uses.
class ReplicaCoreBootTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("crsm_core_boot_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void write_wal(const std::vector<LogRecord>& records) const {
    FileLog wal((dir_ / "wal.log").string());
    for (const LogRecord& r : records) wal.append(r);
    wal.sync();
  }

  std::filesystem::path dir_;
};

TEST_F(ReplicaCoreBootTest, RecoveryAppliesSuffixAboveFloor) {
  // The checkpoint covers ts <= (2,1): two puts. The WAL still holds the
  // covered entry (2,1) and the suffix entry (3,0).
  KvStore base;
  base.apply(kv_put(kClient, 1, "a", "1"));
  base.apply(kv_put(kClient, 2, "b", "2"));
  write_checkpoint_file((dir_ / "checkpoint.bin").string(),
                        take_checkpoint(base, Timestamp{2, 1}, 0,
                                        /*applied=*/2));
  write_wal({LogRecord::prepare(Timestamp{2, 1}, kv_put(kClient, 2, "b", "2")),
             LogRecord::commit(Timestamp{2, 1}),
             LogRecord::prepare(Timestamp{3, 0}, kv_put(kClient, 3, "c", "3")),
             LogRecord::commit(Timestamp{3, 0})});

  FakeEngine e(dir_.string());
  EXPECT_TRUE(e.storage().recovering());
  // Only the entry above the checkpoint re-executes; the count resumes
  // from the checkpoint's.
  ASSERT_EQ(e.applied.size(), 1u);
  EXPECT_EQ(e.applied[0].seq, 3u);
  EXPECT_EQ(e.applied[0].ts, (Timestamp{3, 0}));
  EXPECT_FALSE(e.applied[0].local_origin);
  EXPECT_EQ(e.executed(), 3u);
  EXPECT_EQ(e.recovery_floor(), (Timestamp{2, 1}));
  const auto& proto = dynamic_cast<const ClockRsmReplica&>(e.protocol());
  EXPECT_EQ(proto.last_commit_ts(), (Timestamp{3, 0}));
  auto& kv = dynamic_cast<KvStore&>(e.state_machine());
  EXPECT_EQ(kv.size(), 3u);
  ASSERT_NE(kv.get("c"), nullptr);
  EXPECT_EQ(*kv.get("c"), "3");
}

TEST_F(ReplicaCoreBootTest, RecoveryWithoutCheckpointReplaysEverything) {
  write_wal({LogRecord::prepare(Timestamp{1, 0}, kv_put(kClient, 1, "a", "1")),
             LogRecord::commit(Timestamp{1, 0})});

  FakeEngine e(dir_.string());
  EXPECT_TRUE(e.storage().recovering());
  EXPECT_EQ(e.recovery_floor(), kZeroTimestamp);
  ASSERT_EQ(e.applied.size(), 1u);
  EXPECT_EQ(e.applied[0].ts, (Timestamp{1, 0}));
  EXPECT_EQ(e.executed(), 1u);
  const auto& proto = dynamic_cast<const ClockRsmReplica&>(e.protocol());
  EXPECT_EQ(proto.last_commit_ts(), (Timestamp{1, 0}));
  EXPECT_EQ(dynamic_cast<KvStore&>(e.state_machine()).size(), 1u);
}

}  // namespace
}  // namespace crsm
