#include "rsm/replica_core.h"

#include <utility>
#include <vector>

namespace crsm {

ReplicaCore::ReplicaCore(ReplicaId id, std::size_t max_batch_cmds,
                         std::size_t max_batch_bytes)
    : id_(id),
      batching_(max_batch_cmds > 1),
      batch_(id, max_batch_cmds, max_batch_bytes,
             [this](const std::vector<Command>& members, Command submission) {
               submit_cut(members, submission);
             }) {}

void ReplicaCore::boot(const StateMachineFactory& make_sm,
                       const ProtocolFactory& make_protocol) {
  sm_ = make_sm();
  // The checkpoint (if any) must be in the state machine before the
  // protocol exists: start() replays the log only above recovery_floor().
  // The executed count resumes from the checkpoint's, so replaying the log
  // suffix on top lands on the count of a replica that never restarted.
  executed_.store(storage_->restore_into(*sm_) ? storage_->checkpoint()->applied
                                               : 0,
                  std::memory_order_relaxed);
  proto_ = make_protocol(*this, id_);
}

void ReplicaCore::install_checkpoint(std::string_view blob) {
  storage_->install_checkpoint(blob, *sm_);
  // The peer's snapshot replaces everything executed here so far.
  executed_.store(storage_->checkpoint()->applied, std::memory_order_relaxed);
}

void ReplicaCore::deliver(const Command& cmd, Timestamp ts, bool local_origin) {
  if (is_batch(cmd)) {
    // One replicated entry, many client commands: apply them in envelope
    // order (every replica splits identically, so execution order agrees).
    std::uint32_t sub = 0;
    for (const Command& member : split_batch(cmd)) {
      apply(member, ts, sub++, local_origin);
    }
  } else {
    apply(cmd, ts, 0, local_origin);
  }
  // One checkpoint decision per delivered entry, after the whole batch has
  // applied: a mid-batch checkpoint would cover ts with only a prefix of
  // the batch in the snapshot.
  storage_->note_commit(*sm_, ts, executed());
}

void ReplicaCore::apply(const Command& cmd, Timestamp ts, std::uint32_t sub,
                        bool local_origin) {
  const std::string output = sm_->apply(cmd);
  bump(executed_);
  on_applied(cmd, ts, sub, local_origin, output);
}

void ReplicaCore::deliver_read(const Command& cmd, Timestamp read_ts) {
  const std::string output = sm_->apply_read(cmd);
  bump(reads_served_);
  on_read(cmd, read_ts, output);
}

void ReplicaCore::enqueue_write(Command cmd) {
  bump(batch_cmds_);
  if (batching_) {
    batch_.add(std::move(cmd));
    return;
  }
  // Batching off: every command is its own submission, with no envelope.
  submit_cut(std::span<const Command>(&cmd, 1), cmd);
}

void ReplicaCore::submit_cut(std::span<const Command> members,
                             Command& submission) {
  bump(batch_submissions_);
  on_submit(members, submission);
  proto_->submit(std::move(submission));
}

}  // namespace crsm
