// Stable-storage command log (Section III-A, hard state `Log`).
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "common/log_record.h"
#include "common/types.h"
#include "storage/log_mirror.h"

namespace crsm {

// Append-only log of PREPARE entries and COMMIT marks. PREPARE entries are
// appended in arrival order (not necessarily timestamp order); COMMIT marks
// are appended in timestamp order, and always after the matching PREPARE —
// recovery (Section V-B) depends on both invariants.
//
// `truncate_suffix` exists for reconfiguration (Algorithm 3, line 15): it
// removes PREPARE entries above the decided timestamp that were never
// committed.
class CommandLog {
 public:
  virtual ~CommandLog() = default;

  virtual void append(const LogRecord& r) = 0;
  // Flushes to stable storage; a durability point for PREPAREOK.
  virtual void sync() {}

  // Every record in append order (see LogMirror for the in-memory layout).
  [[nodiscard]] virtual const LogMirror& records() const = 0;
  [[nodiscard]] std::size_t size() const { return records().size(); }

  // Removes every kPrepare record with ts > bound whose timestamp does not
  // appear in `keep`, and every kCommit mark for a removed prepare.
  // (Committed entries are never above `bound` when this is called.)
  virtual void remove_uncommitted_above(Timestamp bound,
                                        const std::function<bool(const Timestamp&)>& keep) = 0;

  // Removes every record with ts <= upto. Used after checkpointing: the
  // snapshot covers that prefix, and every PREPARE at or below the last
  // commit mark is necessarily committed (execution is in timestamp order).
  virtual void truncate_prefix(Timestamp upto) = 0;
};

// In-memory log; used by the simulator (the paper ignores disk latency in
// WAN analysis) and by the throughput runtime (the paper logs to memory in
// the local-cluster experiment for the same reason).
class MemLog final : public CommandLog {
 public:
  void append(const LogRecord& r) override { records_.append(r); }
  [[nodiscard]] const LogMirror& records() const override { return records_; }
  void remove_uncommitted_above(Timestamp bound,
                                const std::function<bool(const Timestamp&)>& keep) override {
    records_.remove_uncommitted_above(bound, keep);
  }
  void truncate_prefix(Timestamp upto) override { records_.truncate_prefix(upto); }

 private:
  LogMirror records_;
};

// In-memory log with power-loss crash semantics, for deterministic
// simulation testing (src/dst). Records appended after the last sync() live
// in the "volatile tail"; a simulated power loss (drop_unsynced, called by
// SimWorld::crash in lossy mode) discards that tail, exactly like a real
// disk losing an un-fsynced page cache. Protocols that sync at their
// durability points (before acking a PREPARE, after a commit mark) survive
// this; a protocol that acks before syncing is caught by the DST durability
// invariant. `set_sync_is_noop(true)` is the deliberate-bug injection used
// to prove the harness catches exactly that class of violation.
class CrashLossyLog final : public CommandLog {
 public:
  void append(const LogRecord& r) override { records_.append(r); }
  void sync() override {
    if (!sync_is_noop_) durable_ = records_.size();
  }
  [[nodiscard]] const LogMirror& records() const override { return records_; }
  void remove_uncommitted_above(Timestamp bound,
                                const std::function<bool(const Timestamp&)>& keep) override;
  void truncate_prefix(Timestamp upto) override;

  // Simulated power loss: discards every record appended since the last
  // effective sync().
  void drop_unsynced() { records_.truncate_to(durable_); }
  [[nodiscard]] std::size_t unsynced() const { return records_.size() - durable_; }
  void set_sync_is_noop(bool v) { sync_is_noop_ = v; }

 private:
  LogMirror records_;
  std::size_t durable_ = 0;
  bool sync_is_noop_ = false;
};

// File-backed log with a write-through in-memory mirror. Records are framed
// with a length prefix; a truncated tail (torn write at crash) is tolerated
// and discarded at open, which decodes the file in 64 KiB reads.
class FileLog final : public CommandLog {
 public:
  // Opens (creating if absent) and replays the file into memory.
  explicit FileLog(std::string path);
  ~FileLog() override;

  FileLog(const FileLog&) = delete;
  FileLog& operator=(const FileLog&) = delete;

  void append(const LogRecord& r) override;
  void sync() override;
  [[nodiscard]] const LogMirror& records() const override { return records_; }
  void remove_uncommitted_above(Timestamp bound,
                                const std::function<bool(const Timestamp&)>& keep) override;
  void truncate_prefix(Timestamp upto) override;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void rewrite_all();

  std::string path_;
  int fd_ = -1;
  LogMirror records_;
};

// fsyncs the directory containing `path`, making a completed rename in it
// durable. Best-effort: errors are ignored (see the definition).
void fsync_parent_dir(const std::string& path);

}  // namespace crsm
