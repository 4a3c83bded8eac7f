// Unit tests for command logs and crash-recovery replay.
#include <gtest/gtest.h>

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/message.h"
#include "storage/command_log.h"
#include "storage/recovery.h"

namespace crsm {
namespace {

Command cmd(std::uint64_t seq) {
  Command c;
  c.client = 1;
  c.seq = seq;
  c.payload = "p" + std::to_string(seq);
  return c;
}

TEST(MemLog, AppendAndRead) {
  MemLog log;
  log.append(LogRecord::prepare(Timestamp{1, 0}, cmd(1)));
  log.append(LogRecord::commit(Timestamp{1, 0}));
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.records().to_vector()[0].type, LogType::kPrepare);
  EXPECT_EQ(log.records().to_vector()[1].type, LogType::kCommit);
}

TEST(MemLog, RemoveUncommittedAbove) {
  MemLog log;
  log.append(LogRecord::prepare(Timestamp{1, 0}, cmd(1)));
  log.append(LogRecord::commit(Timestamp{1, 0}));
  log.append(LogRecord::prepare(Timestamp{5, 0}, cmd(5)));   // uncommitted, above
  log.append(LogRecord::prepare(Timestamp{6, 1}, cmd(6)));   // uncommitted, kept
  log.append(LogRecord::prepare(Timestamp{7, 0}, cmd(7)));   // committed, above
  log.append(LogRecord::commit(Timestamp{7, 0}));
  log.remove_uncommitted_above(Timestamp{2, 0}, [](const Timestamp& ts) {
    return ts == Timestamp{6, 1};
  });
  ASSERT_EQ(log.size(), 5u);
  EXPECT_EQ(log.records().to_vector()[2].ts, (Timestamp{6, 1}));
  EXPECT_EQ(log.records().to_vector()[3].ts, (Timestamp{7, 0}));
}

class FileLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("crsm_log_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(FileLogTest, PersistsAcrossReopen) {
  {
    FileLog log(path_.string());
    log.append(LogRecord::prepare(Timestamp{1, 0}, cmd(1)));
    log.append(LogRecord::commit(Timestamp{1, 0}));
    log.sync();
  }
  FileLog reopened(path_.string());
  ASSERT_EQ(reopened.size(), 2u);
  EXPECT_EQ(reopened.records().to_vector()[0].cmd, cmd(1));
  EXPECT_EQ(reopened.records().to_vector()[1].type, LogType::kCommit);
}

TEST_F(FileLogTest, ToleratesTornTail) {
  {
    FileLog log(path_.string());
    log.append(LogRecord::prepare(Timestamp{1, 0}, cmd(1)));
    log.append(LogRecord::prepare(Timestamp{2, 0}, cmd(2)));
    log.sync();
  }
  // Simulate a torn write: chop the last few bytes.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 3);

  FileLog reopened(path_.string());
  ASSERT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.records().to_vector()[0].cmd, cmd(1));
  // The torn tail is trimmed; appending continues cleanly.
  reopened.append(LogRecord::prepare(Timestamp{3, 0}, cmd(3)));
  reopened.sync();
  FileLog again(path_.string());
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again.records().to_vector()[1].cmd, cmd(3));
}

TEST_F(FileLogTest, TornTailIsTruncatedOnDiskAtOpen) {
  {
    FileLog log(path_.string());
    log.append(LogRecord::prepare(Timestamp{1, 0}, cmd(1)));
    log.append(LogRecord::commit(Timestamp{1, 0}));
    log.sync();
  }
  const auto good_size = std::filesystem::file_size(path_);
  // A torn write leaves a partial frame behind; recovery must not only skip
  // it in memory but ftruncate it away, or the next crash would leave two
  // stacked partial frames and a corrupt middle.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out.write("\x0bpartial", 8);  // plausible length prefix, truncated body
  }
  ASSERT_GT(std::filesystem::file_size(path_), good_size);
  {
    FileLog reopened(path_.string());
    EXPECT_EQ(reopened.size(), 2u);
  }
  EXPECT_EQ(std::filesystem::file_size(path_), good_size)
      << "torn tail must be truncated on disk, not just skipped";
}

TEST_F(FileLogTest, GarbageTailWithVarintContinuationBitsIsDiscarded) {
  {
    FileLog log(path_.string());
    log.append(LogRecord::prepare(Timestamp{1, 0}, cmd(1)));
    log.sync();
  }
  // A tail of 0xFF bytes is an unterminated varint length prefix — the
  // header itself is malformed, not merely incomplete.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    for (int i = 0; i < 12; ++i) out.put('\xff');
  }
  FileLog reopened(path_.string());
  ASSERT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.records().to_vector()[0].cmd, cmd(1));
  // Appends after recovery land where the garbage was and survive reopen.
  reopened.append(LogRecord::commit(Timestamp{1, 0}));
  reopened.sync();
  FileLog again(path_.string());
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again.records().to_vector()[1].type, LogType::kCommit);
}

TEST_F(FileLogTest, FrameWithATrailingByteIsTreatedAsTorn) {
  {
    FileLog log(path_.string());
    log.append(LogRecord::prepare(Timestamp{1, 0}, cmd(1)));
    log.sync();
  }
  const auto good_size = std::filesystem::file_size(path_);
  // A frame whose length is valid but whose record leaves one byte of the
  // body unread. The log serves its frames' bytes as they are, so such a
  // frame (and everything behind it) is cut like any other bad tail.
  std::string body;
  encode_log_record(LogRecord::commit(Timestamp{1, 0}), &body);
  body += 'x';
  ASSERT_LT(body.size(), 128u);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out.put(static_cast<char>(body.size()));
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    std::string next;
    encode_framed_log_record(LogRecord::commit(Timestamp{1, 0}), &next);
    out.write(next.data(), static_cast<std::streamsize>(next.size()));
  }
  {
    FileLog reopened(path_.string());
    ASSERT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.records().to_vector()[0].cmd, cmd(1));
  }
  EXPECT_EQ(std::filesystem::file_size(path_), good_size);
}

TEST_F(FileLogTest, FrameWithAnOverlongLengthIsTreatedAsTorn) {
  {
    FileLog log(path_.string());
    log.append(LogRecord::prepare(Timestamp{1, 0}, cmd(1)));
    log.sync();
  }
  const auto good_size = std::filesystem::file_size(path_);
  // A whole record behind a two-byte length varint that decodes to its
  // size: readable, but not the bytes the encoder writes for it.
  std::string body;
  encode_log_record(LogRecord::commit(Timestamp{1, 0}), &body);
  ASSERT_LT(body.size(), 128u);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out.put(static_cast<char>(0x80 | body.size()));
    out.put(0);
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
  }
  {
    FileLog reopened(path_.string());
    ASSERT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.records().to_vector()[0].cmd, cmd(1));
  }
  EXPECT_EQ(std::filesystem::file_size(path_), good_size);
}

TEST_F(FileLogTest, RemoveUncommittedRewrites) {
  {
    FileLog log(path_.string());
    log.append(LogRecord::prepare(Timestamp{1, 0}, cmd(1)));
    log.append(LogRecord::commit(Timestamp{1, 0}));
    log.append(LogRecord::prepare(Timestamp{9, 2}, cmd(9)));
    log.remove_uncommitted_above(Timestamp{1, 0}, nullptr);
  }
  FileLog reopened(path_.string());
  ASSERT_EQ(reopened.size(), 2u);
}

TEST_F(FileLogTest, LargeRewriteStreamsAndReplaysIdentically) {
  // More than three of the rewrite's 64 KiB buffers of surviving records
  // (committed prefix plus an open tail, as when a checkpoint fires while
  // commands are stalled), rewritten three times.
  const std::string tmp = path_.string() + ".rewrite";
  std::vector<LogRecord> expected;
  {
    FileLog log(path_.string());
    Command big = cmd(0);
    for (std::uint64_t i = 1; i <= 3000; ++i) {
      big.seq = i;
      big.payload = std::string(40 + i % 97, static_cast<char>('a' + i % 26));
      log.append(LogRecord::prepare(Timestamp{i, 1}, big));
      if (i <= 2000) log.append(LogRecord::commit(Timestamp{i, 1}));
    }
    log.append(LogRecord::prepare(Timestamp{5000, 2}, cmd(5000)));  // dropped
    log.sync();
    log.remove_uncommitted_above(Timestamp{2000, 1}, [](const Timestamp& ts) {
      return ts.origin == 1;
    });
    log.truncate_prefix(Timestamp{100, 1});
    log.truncate_prefix(Timestamp{200, 1});
    expected = log.records().to_vector();
    EXPECT_FALSE(std::filesystem::exists(tmp));
  }
  ASSERT_GT(std::filesystem::file_size(path_), 192u * 1024);
  ASSERT_EQ(expected.size(), 1800u * 2 + 1000u);
  FileLog reopened(path_.string());
  EXPECT_EQ(reopened.records().to_vector(), expected);
  EXPECT_FALSE(std::filesystem::exists(tmp));
}

TEST(Replay, CommittedInTimestampOrder) {
  LogMirror recs;
  // PREPAREs arrive out of timestamp order; COMMIT marks are in order.
  recs.append(LogRecord::prepare(Timestamp{2, 1}, cmd(2)));
  recs.append(LogRecord::prepare(Timestamp{1, 0}, cmd(1)));
  recs.append(LogRecord::commit(Timestamp{1, 0}));
  recs.append(LogRecord::commit(Timestamp{2, 1}));
  recs.append(LogRecord::prepare(Timestamp{3, 0}, cmd(3)));  // no commit

  const ReplayResult r = replay_log(recs);
  ASSERT_EQ(r.committed.size(), 2u);
  EXPECT_EQ(r.committed[0].ts, (Timestamp{1, 0}));
  EXPECT_EQ(r.committed[1].ts, (Timestamp{2, 1}));
  EXPECT_EQ(r.last_commit_ts, (Timestamp{2, 1}));
  ASSERT_EQ(r.unresolved.size(), 1u);
  EXPECT_EQ(r.unresolved[0].ts, (Timestamp{3, 0}));
}

TEST(Replay, EmptyLog) {
  const ReplayResult r = replay_log({});
  EXPECT_TRUE(r.committed.empty());
  EXPECT_TRUE(r.unresolved.empty());
  EXPECT_EQ(r.last_commit_ts, kZeroTimestamp);
}

TEST(Replay, CommitWithoutPrepareThrows) {
  LogMirror recs;
  recs.append(LogRecord::commit(Timestamp{1, 0}));
  EXPECT_THROW((void)replay_log(recs), std::runtime_error);
}

TEST(Replay, OutOfOrderCommitMarksThrow) {
  LogMirror recs;
  recs.append(LogRecord::prepare(Timestamp{1, 0}, cmd(1)));
  recs.append(LogRecord::prepare(Timestamp{2, 0}, cmd(2)));
  recs.append(LogRecord::commit(Timestamp{2, 0}));
  recs.append(LogRecord::commit(Timestamp{1, 0}));
  EXPECT_THROW((void)replay_log(recs), std::runtime_error);
}

TEST(Replay, ApplyCallbackRunsInOrder) {
  LogMirror recs;
  recs.append(LogRecord::prepare(Timestamp{5, 0}, cmd(5)));
  recs.append(LogRecord::prepare(Timestamp{4, 1}, cmd(4)));
  recs.append(LogRecord::commit(Timestamp{4, 1}));
  recs.append(LogRecord::commit(Timestamp{5, 0}));
  std::vector<std::uint64_t> seen;
  replay_and_apply(recs, [&](const Command& c, Timestamp) { seen.push_back(c.seq); });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{4, 5}));
}

// --- LogMirror equivalence ----------------------------------------------
//
// Every log keeps its records in a LogMirror. These tests run scripts
// against each log and, beside it, against a reference that keeps whole
// records in a plain vector; after every step the two agree record for
// record, every live record is still at the position its append returned,
// and its bytes are what the WAL encoder writes for it.

// The framed WAL bytes of `r`, from the encoder every FileLog has used.
std::string framed(const LogRecord& r) {
  std::string out;
  encode_framed_log_record(r, &out);
  return out;
}

// The reference log: whole records and the positions their appends
// returned, filtered and truncated one by one.
struct ReferenceLog {
  std::vector<LogRecord> records;
  std::vector<LogPosition> positions;
  std::size_t durable = 0;  // CrashLossyLog's watermark

  void append(const LogRecord& r, LogPosition pos) {
    records.push_back(r);
    positions.push_back(pos);
  }
  void sync() { durable = records.size(); }
  // Keeps the records `keep(i)` holds for, in order.
  template <class Keep>
  void filter(Keep keep) {
    std::vector<LogRecord> out;
    std::vector<LogPosition> pos;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (!keep(i)) continue;
      out.push_back(std::move(records[i]));
      pos.push_back(positions[i]);
    }
    records = std::move(out);
    positions = std::move(pos);
  }
  void truncate_prefix(Timestamp upto) {
    filter([&](std::size_t i) { return records[i].ts > upto; });
    durable = records.size();
  }
  void remove_uncommitted_above(Timestamp bound,
                                const std::function<bool(const Timestamp&)>& keep) {
    std::unordered_set<Timestamp, TimestampHash> committed;
    for (const LogRecord& r : records) {
      if (r.type == LogType::kCommit) committed.insert(r.ts);
    }
    std::unordered_set<Timestamp, TimestampHash> removed;
    filter([&](std::size_t i) {
      const LogRecord& r = records[i];
      if (r.type == LogType::kPrepare && r.ts > bound && !committed.contains(r.ts) &&
          !(keep && keep(r.ts))) {
        removed.insert(r.ts);
        return false;
      }
      return !(r.type == LogType::kCommit && removed.contains(r.ts));
    });
    durable = records.size();
  }
  void drop_unsynced() {
    records.resize(durable);
    positions.resize(durable);
  }

  // The arena bytes the live records occupy: a flag byte plus the framed
  // bytes each.
  [[nodiscard]] std::size_t live_bytes() const {
    std::size_t n = 0;
    for (const LogRecord& r : records) n += 1 + framed(r).size();
    return n;
  }
};

enum class LogKind { kMem, kCrashLossy, kFile };

class MirrorEquivalence : public ::testing::TestWithParam<LogKind> {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("crsm_mirror_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(static_cast<int>(GetParam())));
    std::filesystem::remove(path_);
    switch (GetParam()) {
      case LogKind::kMem: log_ = std::make_unique<MemLog>(); break;
      case LogKind::kCrashLossy: log_ = std::make_unique<CrashLossyLog>(); break;
      case LogKind::kFile: log_ = std::make_unique<FileLog>(path_.string()); break;
    }
  }
  void TearDown() override {
    log_.reset();
    std::filesystem::remove(path_);
  }

  void append(const LogRecord& r) { ref_.append(r, log_->append(r)); }
  void sync() {
    log_->sync();
    ref_.sync();
  }
  void truncate_prefix(Timestamp upto) {
    log_->truncate_prefix(upto);
    ref_.truncate_prefix(upto);
  }
  void remove_uncommitted_above(Timestamp bound,
                                const std::function<bool(const Timestamp&)>& keep) {
    log_->remove_uncommitted_above(bound, keep);
    ref_.remove_uncommitted_above(bound, keep);
  }
  // Reopens the FileLog from its file. Positions belong to a mirror, so the
  // reference adopts the reopened mirror's.
  void reopen() {
    log_.reset();
    log_ = std::make_unique<FileLog>(path_.string());
    ref_.positions.clear();
    for (auto it = log_->records().begin(); it != log_->records().end(); ++it) {
      ref_.positions.push_back(it.position());
    }
    ref_.durable = ref_.records.size();
  }

  void expect_same(const std::string& step) {
    SCOPED_TRACE(step);
    const LogMirror& mirror = log_->records();
    EXPECT_EQ(mirror.to_vector(), ref_.records);
    ASSERT_EQ(log_->size(), ref_.records.size());
    std::size_t n = 0;
    for (auto it = mirror.begin(); it != mirror.end(); ++it, ++n) {
      ASSERT_LT(n, ref_.records.size());
      const LogRecord& want = ref_.records[n];
      EXPECT_EQ(*it, want);
      EXPECT_EQ(it.position(), ref_.positions[n]) << "record " << n << " moved";
      EXPECT_EQ(it.type(), want.type);
      EXPECT_EQ(it.ts(), want.ts);
      EXPECT_EQ(it.wal_bytes(), framed(want));
      EXPECT_EQ(mirror.at(ref_.positions[n]), want);
    }
    EXPECT_EQ(n, ref_.records.size());
    // Chunks hold at least the live records and are freed once empty.
    EXPECT_GE(mirror.bytes(), ref_.live_bytes());
    if (ref_.records.empty()) {
      EXPECT_EQ(mirror.bytes(), 0u);
    }
    if (GetParam() == LogKind::kFile) {
      // The file is the live records' WAL bytes, in order: what the parent
      // encoder writes, so an existing WAL replays unchanged.
      std::string want;
      for (const LogRecord& r : ref_.records) want += framed(r);
      std::ifstream in(path_, std::ios::binary);
      const std::string got((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
      EXPECT_EQ(got, want);
    }
  }

  std::filesystem::path path_;
  std::unique_ptr<CommandLog> log_;
  ReferenceLog ref_;
};

Command payload_cmd(std::uint64_t seq, std::string payload) {
  Command c;
  c.client = 9;
  c.seq = seq;
  c.payload = std::move(payload);
  return c;
}

TEST_P(MirrorEquivalence, ScriptMatchesRecordVector) {
  expect_same("empty");
  // Interleaved PREPAREs (out of timestamp order, three origins) and COMMIT
  // marks (in timestamp order), with a duplicate PREPARE, an empty payload
  // and one with NULs.
  for (std::uint64_t i = 1; i <= 40; i += 2) {
    append(LogRecord::prepare(Timestamp{i + 1, static_cast<ReplicaId>(i % 3)},
                              payload_cmd(i + 1, "v" + std::to_string(i + 1))));
    append(LogRecord::prepare(Timestamp{i, 0}, payload_cmd(i, i % 10 == 1
                                                                  ? std::string()
                                                                  : std::string("n\0l", 3))));
    if (i == 5) append(LogRecord::prepare(Timestamp{i, 0}, payload_cmd(i, "dup")));
    if (i < 30) {
      append(LogRecord::commit(Timestamp{i, 0}));
      append(LogRecord::commit(Timestamp{i + 1, static_cast<ReplicaId>(i % 3)}));
    }
  }
  expect_same("appends");
  sync();

  truncate_prefix(Timestamp{12, 0});
  expect_same("truncate_prefix");

  append(LogRecord::prepare(Timestamp{50, 2}, payload_cmd(50, "late")));
  append(LogRecord::prepare(Timestamp{45, 1}, payload_cmd(45, "keep me")));
  expect_same("appends after truncation");

  remove_uncommitted_above(Timestamp{33, 0},
                           [](const Timestamp& ts) { return ts.ticks % 4 == 1; });
  expect_same("remove_uncommitted_above with keep");
  remove_uncommitted_above(Timestamp{33, 0}, nullptr);
  expect_same("remove_uncommitted_above without keep");

  append(LogRecord::commit(Timestamp{45, 1}));
  sync();
  truncate_prefix(Timestamp{20, 0});
  append(LogRecord::prepare(Timestamp{60, 0}, payload_cmd(60, "unsynced")));
  append(LogRecord::commit(Timestamp{60, 0}));
  expect_same("appends after a second truncation");

  if (GetParam() == LogKind::kCrashLossy) {
    auto& lossy = static_cast<CrashLossyLog&>(*log_);
    EXPECT_EQ(lossy.unsynced(), 2u);
    lossy.drop_unsynced();
    ref_.drop_unsynced();
    expect_same("drop_unsynced after truncation");
  }
  if (GetParam() == LogKind::kFile) {
    sync();
    reopen();
    expect_same("reopen");
    truncate_prefix(Timestamp{100, 0});
    reopen();
    expect_same("reopen after truncating everything");
  }
}

TEST_P(MirrorEquivalence, RandomScriptsMatchRecordVector) {
  // Random scripts over PREPAREs out of timestamp order (three origins,
  // sometimes duplicated, a few over one 64 KiB chunk), COMMIT marks for
  // logged PREPAREs, and every removal the log offers.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TearDown();
    SetUp();
    ref_ = ReferenceLog{};
    std::mt19937_64 rng(seed);
    const auto below = [&](std::uint64_t n) { return rng() % n; };
    std::vector<Timestamp> uncommitted;
    Tick clock = 100;
    for (int step = 0; step < 160; ++step) {
      const std::uint64_t op = below(100);
      std::string what;
      if (op < 45) {
        clock += 1 + below(3);
        const Timestamp ts{clock - below(8), static_cast<ReplicaId>(below(3))};
        std::size_t size = below(100);
        if (below(60) == 0) size = LogMirror::kChunkBytes + below(9000);
        std::string payload(size, '\0');
        for (char& c : payload) c = static_cast<char>(below(256));
        append(LogRecord::prepare(ts, payload_cmd(ts.ticks, payload)));
        if (below(10) == 0) append(LogRecord::prepare(ts, payload_cmd(ts.ticks, "dup")));
        uncommitted.push_back(ts);
        what = "append prepare " + ts.to_string() + " of " + std::to_string(size);
      } else if (op < 70) {
        if (uncommitted.empty()) continue;
        const std::size_t i = below(uncommitted.size());
        append(LogRecord::commit(uncommitted[i]));
        what = "append commit " + uncommitted[i].to_string();
        uncommitted.erase(uncommitted.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (op < 80) {
        sync();
        what = "sync";
      } else if (op < 87) {
        const Timestamp upto{clock - below(40), static_cast<ReplicaId>(below(3))};
        truncate_prefix(upto);
        what = "truncate_prefix " + upto.to_string();
      } else if (op < 94) {
        const Timestamp bound{clock - below(30), static_cast<ReplicaId>(below(3))};
        const std::uint64_t mod = 2 + below(3);
        std::function<bool(const Timestamp&)> keep;
        if (below(2) == 0) keep = [mod](const Timestamp& ts) { return ts.ticks % mod == 0; };
        remove_uncommitted_above(bound, keep);
        what = "remove_uncommitted_above " + bound.to_string();
      } else if (GetParam() == LogKind::kCrashLossy) {
        static_cast<CrashLossyLog&>(*log_).drop_unsynced();
        ref_.drop_unsynced();
        what = "drop_unsynced";
      } else if (GetParam() == LogKind::kFile) {
        reopen();
        what = "reopen";
      } else {
        continue;
      }
      expect_same("step " + std::to_string(step) + ": " + what);
      if (HasFatalFailure()) return;
    }
  }
}

TEST_P(MirrorEquivalence, ChunksAreFreedOnceEmpty) {
  // Two chunks of PREPAREs: truncating the first chunk's records frees it,
  // and the second keeps its records at their positions.
  const std::string payload(100, 'x');
  std::uint64_t i = 0;
  while (log_->records().bytes() <= LogMirror::kChunkBytes) {
    ++i;
    append(LogRecord::prepare(Timestamp{i, 0}, payload_cmd(i, payload)));
  }
  const Tick first_of_second = i;
  for (int k = 0; k < 10; ++k) {
    ++i;
    append(LogRecord::prepare(Timestamp{i, 0}, payload_cmd(i, payload)));
  }
  sync();
  const std::size_t two = log_->records().bytes();
  truncate_prefix(Timestamp{first_of_second - 2, 0});
  EXPECT_EQ(log_->records().bytes(), two) << "one live record keeps its chunk";
  expect_same("first chunk partly dead");
  truncate_prefix(Timestamp{first_of_second - 1, 0});
  EXPECT_EQ(log_->records().bytes(), two - LogMirror::kChunkBytes);
  expect_same("first chunk freed");
  truncate_prefix(Timestamp{i, 0});
  EXPECT_EQ(log_->records().bytes(), 0u);
  expect_same("all freed");
}

INSTANTIATE_TEST_SUITE_P(AllLogs, MirrorEquivalence,
                         ::testing::Values(LogKind::kMem, LogKind::kCrashLossy,
                                           LogKind::kFile),
                         [](const ::testing::TestParamInfo<LogKind>& info) {
                           switch (info.param) {
                             case LogKind::kMem: return std::string("MemLog");
                             case LogKind::kCrashLossy: return std::string("CrashLossyLog");
                             case LogKind::kFile: return std::string("FileLog");
                           }
                           return std::string();
                         });

TEST(LogMirror, HoldDefersFreeingAChunkAViewPointsInto) {
  LogMirror log;
  const LogPosition pos = log.append(LogRecord::prepare(Timestamp{1, 0}, cmd(1)));
  std::optional<LogMirror::Hold> hold(std::in_place, log);
  const LogRecord view = log.at(pos);
  ASSERT_TRUE(view.cmd.payload.is_view());
  log.truncate_prefix(Timestamp{1, 0});
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(view.cmd, cmd(1)) << "the held chunk is still there";
  EXPECT_EQ(log.bytes(), LogMirror::kChunkBytes);
  hold.reset();
  // The first change after the hold ends frees it.
  log.append(LogRecord::commit(Timestamp{2, 0}));
  EXPECT_EQ(log.bytes(), LogMirror::kChunkBytes);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_THROW((void)log.at(pos), std::out_of_range);
}

TEST(LogMirror, AnEmptyLogAllocatesNothing) {
  const LogMirror log;
  EXPECT_EQ(log.bytes(), 0u);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.begin(), log.end());
}

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

TEST(MemLog, CommittedWindowCostsAtMost112BytesPerCommand) {
  // Between checkpoints every command holds a PREPARE and a COMMIT mark:
  // 88 + 15 bytes of framed WAL records with a flag byte each, 64 B
  // payloads, and nothing else.
#ifdef CRSM_SANITIZED_HEAP
  GTEST_SKIP() << "a sanitizer's allocator does not report through mallinfo2";
#endif
  constexpr std::size_t kCommands = 10'000;
  const std::string payload(64, 'x');
  MemLog log;
  const std::size_t before = heap_in_use();
  for (std::uint64_t i = 1; i <= kCommands; ++i) {
    Command c;
    c.client = 1;
    c.seq = i;
    c.payload = payload;
    log.append(LogRecord::prepare(Timestamp{1'000'000 + i, 1}, c));
    log.append(LogRecord::commit(Timestamp{1'000'000 + i, 1}));
  }
  const double per_command = static_cast<double>(heap_in_use() - before) /
                             static_cast<double>(kCommands);
  ASSERT_EQ(log.size(), 2 * kCommands);
  RecordProperty("bytes_per_committed_command", std::to_string(per_command));
  EXPECT_LE(per_command, 112.0);
}

// The records of tests/data/wal_v1.log, in append order. 300 commands from
// three origins: PREPAREs arrive in swapped pairs (out of timestamp order),
// COMMIT marks follow in timestamp order, the last 20 stay uncommitted and
// command 7 is prepared twice. Payloads carry NULs, one is empty and one is
// 70000 bytes, so the file spans more than one 64 KiB read.
std::vector<LogRecord> wal_fixture_records() {
  auto prepare = [](std::uint64_t i) {
    Command c;
    c.client = 100 + i % 5;
    c.seq = i;
    if (i == 150) {
      std::string big(70000, '\0');
      for (std::size_t k = 0; k < big.size(); ++k) big[k] = static_cast<char>(k * 31 % 251);
      c.payload = big;
    } else if (i % 50 != 0) {
      c.payload = std::string(i % 40, static_cast<char>('a' + i % 26)) +
                  std::string(1, '\0') + std::to_string(i);
    }
    return LogRecord::prepare(Timestamp{1000 + i * 7, static_cast<ReplicaId>(i % 3)}, c);
  };
  auto commit = [](std::uint64_t i) {
    return LogRecord::commit(Timestamp{1000 + i * 7, static_cast<ReplicaId>(i % 3)});
  };
  std::vector<LogRecord> out;
  for (std::uint64_t i = 1; i <= 300; i += 2) {
    out.push_back(prepare(i + 1));
    out.push_back(prepare(i));
    if (i == 7) out.push_back(prepare(7));
    if (i + 1 <= 280) {
      out.push_back(commit(i));
      out.push_back(commit(i + 1));
    }
  }
  return out;
}

// tests/data/wal_v1.log was written by an earlier FileLog, one that kept
// whole records in memory and read the file in one piece at open. It must
// replay to the records it was written from, open without being trimmed,
// and match byte for byte what FileLog writes for those records today.
TEST_F(FileLogTest, CheckedInWalReplaysToItsRecords) {
  const std::filesystem::path fixture =
      std::filesystem::path(CRSM_TEST_DATA_DIR) / "wal_v1.log";
  std::filesystem::copy_file(fixture, path_);
  const auto size = std::filesystem::file_size(path_);
  ASSERT_GT(size, std::uintmax_t{1} << 16) << "the fixture must span two reads";

  const std::vector<LogRecord> expected = wal_fixture_records();
  {
    FileLog log(path_.string());
    EXPECT_EQ(log.records().to_vector(), expected);
    const ReplayResult rr = replay_log(log.records());
    EXPECT_EQ(rr.committed.size(), 280u);
    EXPECT_EQ(rr.unresolved.size(), 20u);
  }
  EXPECT_EQ(std::filesystem::file_size(path_), size) << "nothing was trimmed";

  // Writing the same records today produces the same bytes.
  const std::filesystem::path rewritten = path_.string() + ".new";
  std::filesystem::remove(rewritten);
  {
    FileLog log(rewritten.string());
    for (const LogRecord& r : expected) log.append(r);
    log.sync();
  }
  auto slurp = [](const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(slurp(rewritten), slurp(fixture));
  std::filesystem::remove(rewritten);

  // A torn tail inside the big record, past the first 64 KiB read, trims
  // back to the record before it.
  std::size_t before_big = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].type == LogType::kPrepare && expected[i].cmd.seq == 150) {
      before_big = i;
      break;
    }
  }
  std::filesystem::resize_file(path_, (std::uintmax_t{1} << 16) + 100);
  FileLog torn(path_.string());
  const std::vector<LogRecord> prefix(expected.begin(),
                                      expected.begin() + static_cast<std::ptrdiff_t>(before_big));
  EXPECT_EQ(torn.records().to_vector(), prefix);
  EXPECT_LT(std::filesystem::file_size(path_), std::uintmax_t{1} << 16);
}

}  // namespace
}  // namespace crsm
