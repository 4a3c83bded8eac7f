#include "storage/replica_storage.h"

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <utility>

namespace crsm {

// --- GroupCommitLog --------------------------------------------------------

GroupCommitLog::GroupCommitLog(std::unique_ptr<CommandLog> inner,
                               bool defer_sync,
                               std::uint64_t test_fsync_delay_us)
    : inner_(std::move(inner)),
      defer_sync_(defer_sync),
      test_fsync_delay_us_(test_fsync_delay_us) {}

LogPosition GroupCommitLog::append(const LogRecord& r) {
  const LogPosition pos = inner_->append(r);
  ++batch_appends_;
  appends_.fetch_add(1, std::memory_order_relaxed);
  return pos;
}

void GroupCommitLog::sync() {
  sync_requests_.fetch_add(1, std::memory_order_relaxed);
  sync_pending_ = true;
  if (!defer_sync_) (void)flush();
}

std::size_t GroupCommitLog::flush() {
  if (!sync_pending_) return 0;
  const std::size_t batch = batch_appends_;
  if (test_fsync_delay_us_ != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(test_fsync_delay_us_));
  }
  inner_->sync();
  sync_pending_ = false;
  batch_appends_ = 0;
  syncs_.fetch_add(1, std::memory_order_relaxed);
  if (batch > max_batch_.load(std::memory_order_relaxed)) {
    max_batch_.store(batch, std::memory_order_relaxed);
  }
  return batch;
}

void GroupCommitLog::remove_uncommitted_above(
    Timestamp bound, const std::function<bool(const Timestamp&)>& keep) {
  // FileLog rewrites + syncs the whole file here, so any owed durability
  // point is covered; count the batch as flushed.
  inner_->remove_uncommitted_above(bound, keep);
  sync_pending_ = false;
  batch_appends_ = 0;
  syncs_.fetch_add(1, std::memory_order_relaxed);
}

void GroupCommitLog::truncate_prefix(Timestamp upto) {
  inner_->truncate_prefix(upto);
  sync_pending_ = false;
  batch_appends_ = 0;
  syncs_.fetch_add(1, std::memory_order_relaxed);
}

void GroupCommitLog::fill_stats(StorageStats* out) const {
  out->appends = appends_.load(std::memory_order_relaxed);
  out->sync_requests = sync_requests_.load(std::memory_order_relaxed);
  out->syncs = syncs_.load(std::memory_order_relaxed);
  out->max_batch = max_batch_.load(std::memory_order_relaxed);
}

// --- ReplicaStorage --------------------------------------------------------

ReplicaStorage::ReplicaStorage(StorageOptions opt,
                               std::unique_ptr<CommandLog> memory_log)
    : opt_(std::move(opt)) {
  if (durable()) {
    if (memory_log) {
      throw std::invalid_argument(
          "ReplicaStorage: memory log given for a durable replica");
    }
    std::filesystem::create_directories(opt_.dir);
    checkpoint_ = read_checkpoint_file(checkpoint_path());
    // Deferred syncs only make sense for a log that actually hits disk.
    log_ = std::make_unique<GroupCommitLog>(
        std::make_unique<FileLog>(wal_path()), opt_.group_commit,
        opt_.test_fsync_delay_us);
  } else {
    if (!memory_log) memory_log = std::make_unique<MemLog>();
    log_ = std::make_unique<GroupCommitLog>(std::move(memory_log),
                                            /*defer_sync=*/false);
  }
  boot_recovering_ = !log_->records().empty() || checkpoint_.has_value();
}

std::string ReplicaStorage::wal_path() const { return opt_.dir + "/wal.log"; }

std::string ReplicaStorage::checkpoint_path() const {
  return opt_.dir + "/checkpoint.bin";
}

std::string ReplicaStorage::encoded_checkpoint() const {
  return checkpoint_ ? checkpoint_->encode() : std::string();
}

bool ReplicaStorage::restore_into(StateMachine& sm) const {
  if (!checkpoint_) return false;
  sm.restore(checkpoint_->state);
  return true;
}

void ReplicaStorage::install_checkpoint(std::string_view blob,
                                        StateMachine& sm) {
  Checkpoint cp = Checkpoint::decode(std::string(blob));
  sm.restore(cp.state);
  adopt_checkpoint(std::move(cp));
}

void ReplicaStorage::note_commit(const StateMachine& sm, Timestamp ts,
                                 std::uint64_t applied) {
  if (opt_.checkpoint_every == 0) return;
  if (++commits_since_checkpoint_ < opt_.checkpoint_every) return;
  // `ts` is the commit timestamp of the command just executed; execution is
  // in commit order, so everything at or below it is already applied. The
  // epoch is carried over from the previous checkpoint: the durable runtime
  // runs reconfiguration-free (epoch 0), and recovery only consumes
  // last_applied; plumb the live epoch through ProtocolEnv before enabling
  // reconfig + durability together.
  checkpoint_now(sm, ts, checkpoint_ ? checkpoint_->epoch : 0, applied);
}

void ReplicaStorage::checkpoint_now(const StateMachine& sm, Timestamp ts,
                                    Epoch epoch, std::uint64_t applied) {
  commits_since_checkpoint_ = 0;
  adopt_checkpoint(take_checkpoint(sm, ts, epoch, applied));
}

void ReplicaStorage::adopt_checkpoint(Checkpoint cp) {
  // Persist before truncating the covered WAL prefix: a crash between the
  // two must leave the prefix in at least one of the checkpoint file or the
  // log, never neither. A volatile replica has no crash to survive and keeps
  // the checkpoint in memory only, for catch-up to serve.
  if (durable()) write_checkpoint_file(checkpoint_path(), cp);
  checkpoint_ = std::move(cp);
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  truncate_covered_prefix(*log_, *checkpoint_);
}

StorageStats ReplicaStorage::stats() const {
  StorageStats s;
  log_->fill_stats(&s);
  s.held_messages = held_messages_.load(std::memory_order_relaxed);
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace crsm
