// Protocol-level command batching: the batch envelope.
//
// A batch of client commands travels through the commit pipeline as ONE
// opaque Command whose payload is an encoded kCmdBatch Message (the member
// commands, length-prefixed — see docs/WIRE_FORMAT.md "Batch envelope").
// The protocols (Clock-RSM, Paxos, Mencius), the WAL, catch-up and
// reconfiguration never look inside a command payload, so a batch gets one
// PREPARE, one timestamp/ack round and one WAL record with no protocol
// changes; ReplicaCore::deliver, which both engines run, splits the
// envelope back into member commands at execution time, and the engine
// fans replies out per member.
//
// Both engines accumulate batches through ReplicaCore's BatchAccumulator
// and keep only the decision of *when* to cut: NodeRuntime at the end of
// an event-loop pass, SimWorld at a same-time simulator event.
//
// The envelope command's identity: `client` is the kBatchClient sentinel
// (never a real client id, so it can't collide with client routing or
// history checking) and `seq` packs (origin replica << 40 | counter) for
// uniqueness across concurrent origins. Nothing dedups on the envelope's
// identity, so a restarted origin reusing counters is harmless.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/command.h"
#include "common/types.h"

namespace crsm {

// Sentinel client id marking a batch envelope. Real client ids are
// make_client_id(replica, index) and never reach this value.
inline constexpr ClientId kBatchClient = ~ClientId{0};

// True iff `cmd` is a batch envelope produced by make_batch().
[[nodiscard]] inline bool is_batch(const Command& cmd) {
  return cmd.client == kBatchClient;
}

// Packs `origin`'s `counter`-th batch into one envelope command. Requires
// cmds.size() >= 1; a runtime that cut a singleton batch should submit the
// bare command instead (no envelope overhead for batch size 1).
[[nodiscard]] Command make_batch(const std::vector<Command>& cmds,
                                 ReplicaId origin, std::uint64_t counter);

// Splits an envelope back into its member commands (owned copies). Throws
// CodecError on a corrupt envelope — fail-stop, like any other corrupt
// replicated state.
[[nodiscard]] std::vector<Command> split_batch(const Command& envelope);

// Submit-side batch accumulator of one origin replica: owns the buffer, the
// count and byte caps, the singleton-versus-envelope cut and the envelope
// counter. The owner decides when to cut (cut()); add() also cuts on its
// own when a cap is reached. Single-threaded, like the replica it serves.
class BatchAccumulator {
 public:
  // Receives every cut: `members` are the cut commands in arrival order;
  // `submission` is what the protocol should replicate — the bare command
  // for a singleton cut, else an envelope carrying all members.
  using Sink = std::function<void(const std::vector<Command>& members,
                                  Command submission)>;

  // A batch is cut once it holds `max_cmds` commands, or before a command
  // that would push its payload bytes past `max_bytes` (0 = no byte cap; an
  // oversized command always ships, alone).
  BatchAccumulator(ReplicaId origin, std::size_t max_cmds,
                   std::size_t max_bytes, Sink sink);

  void add(Command cmd);
  // Cuts the buffered commands; no-op when the buffer is empty.
  void cut();
  // Drops the buffered commands uncut (a crash: none was acknowledged).
  void clear();
  [[nodiscard]] bool empty() const { return buf_.empty(); }

 private:
  ReplicaId origin_;
  std::size_t max_cmds_;
  std::size_t max_bytes_;
  Sink sink_;
  std::vector<Command> buf_;
  std::size_t bytes_ = 0;
  std::uint64_t counter_ = 0;  // envelopes cut so far (envelope seq)
};

}  // namespace crsm
