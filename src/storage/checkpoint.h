// Checkpointing (Section V-B): snapshot the state machine so recovery can
// skip replaying the whole log, then truncate the covered log prefix.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.h"
#include "rsm/state_machine.h"
#include "storage/command_log.h"

namespace crsm {

// A durable snapshot of a replica's applied state.
struct Checkpoint {
  Timestamp last_applied = kZeroTimestamp;  // commit mark covered by `state`
  Epoch epoch = 0;
  std::string state;  // StateMachine::snapshot()
  // Commands applied to produce `state` (batch members counted one by one):
  // a node restored from this checkpoint resumes its executed count here, so
  // it agrees with a node that replayed its whole history.
  std::uint64_t applied = 0;

  friend bool operator==(const Checkpoint&, const Checkpoint&) = default;

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static Checkpoint decode(const std::string& blob);
};

// Captures a checkpoint of `sm` as of commit timestamp `last_applied`.
// The caller must pass the protocol's current last commit timestamp; all
// commands with ts <= last_applied must already be applied to `sm`, and
// `applied` is how many commands that is.
[[nodiscard]] Checkpoint take_checkpoint(const StateMachine& sm,
                                         Timestamp last_applied, Epoch epoch,
                                         std::uint64_t applied = 0);

// Removes log records covered by the checkpoint (ts <= last_applied).
// Every PREPARE at or below the last commit mark is necessarily committed
// (commands execute in timestamp order), so nothing recoverable is lost.
void truncate_covered_prefix(CommandLog& log, const Checkpoint& cp);

// Restores `sm` from the checkpoint and replays the remaining log suffix,
// applying committed commands above the checkpoint in timestamp order.
// Returns the resulting last-applied timestamp.
Timestamp recover_with_checkpoint(const std::optional<Checkpoint>& cp,
                                  const CommandLog& log, StateMachine& sm);

// File persistence (atomic via write-to-temp + rename).
void write_checkpoint_file(const std::string& path, const Checkpoint& cp);
[[nodiscard]] std::optional<Checkpoint> read_checkpoint_file(const std::string& path);

}  // namespace crsm
