// Per-replica durable storage: the pluggable seam between a runtime
// environment and its command log / checkpoint files.
//
// PR 3's TCP runtime hardwired MemLog into every node, so a killed crsm_node
// lost its log and could never rejoin. ReplicaStorage wires the storage
// layer (FileLog, Checkpoint, Recovery) into the runtimes behind one knob:
// an empty directory means the volatile MemLog of the paper's throughput
// experiments; a directory selects a FileLog WAL plus an atomically written
// checkpoint file, and the replica becomes restartable.
//
// Either way the replica checkpoints every `checkpoint_every` commits and
// drops the covered log prefix (a volatile replica keeps its checkpoint in
// memory only), so its memory is O(checkpoint_every + pending + state)
// rather than O(history).
//
// The simulator's replicas (SimWorld) sit on the same class, so simulated
// and real replicas checkpoint, truncate, recover and serve catch-up
// checkpoints through one code path.
//
// Durability cost is managed with group commit: the protocol requests a
// durability point per PREPARE (CommandLog::sync()), but GroupCommitLog
// defers the fdatasync; the runtime calls flush() once per event-loop pass,
// so every append accumulated during the pass shares a single fsync. The
// runtime must hold any message whose send was requested while a sync is
// pending (sync_pending()) until after flush() — that keeps PREPAREOK
// strictly after the durability point, which is what lets Clock-RSM count a
// command committed once a majority has it stably logged (Section III-A).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "rsm/state_machine.h"
#include "storage/checkpoint.h"
#include "storage/command_log.h"

namespace crsm {

struct StorageOptions {
  // Empty: volatile MemLog with in-memory checkpoints (the paper's
  // local-cluster throughput setup). Non-empty: the replica's durable state
  // lives in this directory (created if absent) as wal.log + checkpoint.bin.
  std::string dir;
  // FileLog only: batch fdatasyncs per runtime pass instead of syncing on
  // every protocol durability request.
  bool group_commit = true;
  // Committed log entries between checkpoints (0 = never checkpoint). Each
  // checkpoint truncates the covered log prefix. NodeRuntime, TcpCluster and
  // crsm_node's --checkpoint-every all take their default from here.
  std::uint64_t checkpoint_every = 10000;
  // Fault injection (tests only): sleep this long before every fsync batch,
  // emulating a slow or stalling device under this replica's WAL. Multi-group
  // isolation tests stall one group's storage and assert the others keep
  // committing at full speed.
  std::uint64_t test_fsync_delay_us = 0;

  friend bool operator==(const StorageOptions&, const StorageOptions&) = default;
};

// Storage-side counters, in the TransportStats mold: sampled from any thread
// while the owning loop mutates them.
struct StorageStats {
  std::uint64_t appends = 0;        // log records appended
  std::uint64_t sync_requests = 0;  // durability points requested (sync())
  std::uint64_t syncs = 0;          // fdatasync batches actually issued
  std::uint64_t max_batch = 0;      // largest appends-per-fsync batch
  std::uint64_t held_messages = 0;  // sends queued behind the flush fence
  std::uint64_t checkpoints = 0;    // checkpoints taken or installed
};

// CommandLog decorator implementing group commit. In deferred mode, sync()
// only records that a durability point is owed; flush() issues one inner
// sync covering every append since the last flush. In pass-through mode
// (MemLog, or group_commit = false) sync() forwards immediately, so
// protocol code is oblivious either way.
class GroupCommitLog final : public CommandLog {
 public:
  GroupCommitLog(std::unique_ptr<CommandLog> inner, bool defer_sync,
                 std::uint64_t test_fsync_delay_us = 0);

  LogPosition append(const LogRecord& r) override;
  void sync() override;
  [[nodiscard]] const LogMirror& records() const override {
    return inner_->records();
  }
  void remove_uncommitted_above(
      Timestamp bound, const std::function<bool(const Timestamp&)>& keep) override;
  void truncate_prefix(Timestamp upto) override;

  // True while a requested durability point has not been made stable yet.
  [[nodiscard]] bool sync_pending() const { return sync_pending_; }
  // Performs the owed inner sync (if any); returns the batch size flushed.
  std::size_t flush();

  [[nodiscard]] const CommandLog& inner() const { return *inner_; }
  void fill_stats(StorageStats* out) const;

 private:
  std::unique_ptr<CommandLog> inner_;
  const bool defer_sync_;
  const std::uint64_t test_fsync_delay_us_;
  bool sync_pending_ = false;
  std::size_t batch_appends_ = 0;  // appends since the last inner sync

  std::atomic<std::uint64_t> appends_{0};
  std::atomic<std::uint64_t> sync_requests_{0};
  std::atomic<std::uint64_t> syncs_{0};
  std::atomic<std::uint64_t> max_batch_{0};
};

// One replica's stable storage: log + checkpoint + recovery bookkeeping.
// All methods run on the owning replica's execution thread except stats(),
// which is safe from any thread.
class ReplicaStorage {
 public:
  // `memory_log` replaces the volatile MemLog (the simulator supplies a
  // CrashLossyLog for power-loss testing); it must be null when opt.dir is
  // set. A volatile log sits under a pass-through GroupCommitLog, so every
  // sync() reaches it at once.
  explicit ReplicaStorage(StorageOptions opt,
                          std::unique_ptr<CommandLog> memory_log = nullptr);

  [[nodiscard]] CommandLog& log() { return *log_; }
  [[nodiscard]] bool durable() const { return !opt_.dir.empty(); }
  // True when boot found prior state (a non-empty log or a checkpoint):
  // the hosted protocol should replay and, on a live mesh, catch up.
  [[nodiscard]] bool recovering() const { return boot_recovering_; }

  // --- group commit ---
  [[nodiscard]] bool sync_pending() const { return log_->sync_pending(); }
  void flush() { (void)log_->flush(); }

  // --- checkpoints ---
  [[nodiscard]] Timestamp recovery_floor() const {
    return checkpoint_ ? checkpoint_->last_applied : kZeroTimestamp;
  }
  [[nodiscard]] const std::optional<Checkpoint>& checkpoint() const {
    return checkpoint_;
  }
  // Latest checkpoint, serialized ("" = none) — served to recovering peers.
  [[nodiscard]] std::string encoded_checkpoint() const;
  // Restores `sm` from the boot checkpoint. Returns false if there is none.
  bool restore_into(StateMachine& sm) const;
  // Installs a checkpoint received from a peer during catch-up: restores
  // `sm`, truncates the covered log prefix and (when durable) persists the
  // checkpoint so the next restart starts from it. Throws CodecError on a
  // malformed blob.
  void install_checkpoint(std::string_view blob, StateMachine& sm);
  // Called once per executed log entry, in execution order, with `applied`
  // commands executed so far. Every `checkpoint_every` entries takes a
  // checkpoint of `sm` (covering `ts`, the entry's commit timestamp),
  // persists it when durable, and truncates the covered log prefix.
  void note_commit(const StateMachine& sm, Timestamp ts, std::uint64_t applied);
  // Checkpoints `sm` now, as note_commit does at the cadence but with the
  // caller's epoch, and restarts the cadence count.
  void checkpoint_now(const StateMachine& sm, Timestamp ts, Epoch epoch,
                      std::uint64_t applied);

  void count_held_message() {
    held_messages_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] StorageStats stats() const;

 private:
  void adopt_checkpoint(Checkpoint cp);
  [[nodiscard]] std::string wal_path() const;
  [[nodiscard]] std::string checkpoint_path() const;

  StorageOptions opt_;
  std::unique_ptr<GroupCommitLog> log_;
  std::optional<Checkpoint> checkpoint_;
  std::uint64_t commits_since_checkpoint_ = 0;
  bool boot_recovering_ = false;
  std::atomic<std::uint64_t> held_messages_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
};

}  // namespace crsm
