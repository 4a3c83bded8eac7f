// Interfaces between replication protocols and their execution environment.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/command.h"
#include "common/message.h"
#include "common/types.h"
#include "obs/metric_sink.h"
#include "storage/command_log.h"

namespace crsm {

namespace obs {
class CommitTracer;
}  // namespace obs

// Everything a protocol reactor may do to the outside world. Implemented by
// the discrete-event simulator (SimWorld's replica context) and by the TCP
// runtime (NodeRuntime); protocol code is engine-agnostic and strictly
// single-threaded.
//
// Guarantees provided by every implementation:
//  * send(): reliable, per-(sender,receiver) FIFO delivery (Section II-A
//    assumes FIFO channels); sending to self enqueues a local delivery and
//    never re-enters the protocol synchronously.
//  * clock_now(): strictly increasing local physical time in microseconds,
//    loosely synchronized across replicas.
//  * schedule_after(): fires `fn` once after the delay, in the replica's
//    execution context (never concurrently with message handling).
class ProtocolEnv {
 public:
  virtual ~ProtocolEnv() = default;

  [[nodiscard]] virtual ReplicaId self() const = 0;

  // Takes the message by value: a sender that moves it in (a catch-up reply
  // can carry thousands of records) has it moved on into the outgoing
  // frame, never copied. Its payloads are owned: SimWorld's network keeps
  // messages in flight across the sender's checkpoints, so a record read
  // from the log (a view of its arena, see LogMirror) goes in as a copy.
  virtual void send(ReplicaId to, Message m) = 0;

  // Sends a message the protocol encoded itself (Message::encode's framed
  // bytes, `from` already this replica), under send()'s guarantees. An
  // environment that puts bytes on a wire queues them as they are; this
  // default decodes them and calls send().
  virtual void send_encoded(ReplicaId to, std::string frame) {
    send(to, Message::decode(frame));
  }

  // Fan-out send: `m` goes to every replica in `tos` (FIFO per link, same
  // guarantees as send). Environments backed by a transport serialize the
  // message at most once regardless of fan-out; this default keeps scripted
  // test environments and the send() contract unchanged.
  virtual void multicast(const std::vector<ReplicaId>& tos, Message m) {
    for (ReplicaId to : tos) send(to, m);
  }

  [[nodiscard]] virtual Tick clock_now() = 0;
  virtual void schedule_after(Tick delay_us, std::function<void()> fn) = 0;
  [[nodiscard]] virtual CommandLog& log() = 0;

  // Reports a command as committed and executed at this replica, in the
  // protocol's total order. `local_origin` is true iff this replica
  // originated the command (and therefore owes its client a reply).
  virtual void deliver(const Command& cmd, Timestamp ts, bool local_origin) = 0;

  // Reports a read-only command as servable against the replica's current
  // state: every write with a timestamp <= `read_ts` has been executed here
  // and no smaller-timestamped write can still arrive. The environment
  // executes it via StateMachine::apply_read and routes the output to the
  // waiting client. Reads never enter the replicated log or the execution
  // trace, so this is distinct from deliver(). Default no-op: environments
  // that never issue reads need no read plumbing.
  virtual void deliver_read(const Command& cmd, Timestamp read_ts) {
    (void)cmd;
    (void)read_ts;
  }

  // Highest commit timestamp covered by an installed checkpoint, if any
  // (Section V-B). Recovery replays the log only above this floor; the
  // environment is responsible for restoring the state machine from the
  // checkpoint before start().
  [[nodiscard]] virtual Timestamp recovery_floor() const { return kZeroTimestamp; }

  // Latest checkpoint, serialized (Checkpoint::encode; "" = none). Served to
  // recovering peers whose catch-up request predates our recovery floor —
  // the covered log prefix is gone, so the snapshot stands in for it.
  [[nodiscard]] virtual std::string encoded_checkpoint() const { return {}; }

  // Installs a checkpoint received from a peer during catch-up: restores the
  // state machine from it, truncates the covered log prefix and advances
  // recovery_floor(). Default no-op: scripted/simulated environments do not
  // support remote checkpoints.
  virtual void install_checkpoint(std::string_view blob) { (void)blob; }

  // Commit-pipeline tracer (obs/trace.h), or nullptr when the environment
  // does not trace (simulator, scripted tests). Protocols cache the pointer
  // at construction and stamp pipeline stages through it; every stamp site
  // must tolerate nullptr, so untraced environments stay zero-cost.
  [[nodiscard]] virtual obs::CommitTracer* tracer() { return nullptr; }
};

// A replication protocol instance at one replica: an event-driven reactor.
// All entry points run in the replica's single execution context.
class ReplicaProtocol {
 public:
  virtual ~ReplicaProtocol() = default;

  // Called once before any message; protocols start periodic timers here.
  virtual void start() {}

  // A local client's <REQUEST cmd>.
  virtual void submit(Command cmd) = 0;

  // A local client's read-only command. Protocols with a stability-based
  // local read path (Clock-RSM) serve it at this replica via
  // ProtocolEnv::deliver_read once it is safe; the default falls back to the
  // replicated log, so reads stay linearizable everywhere at full commit
  // cost.
  virtual void submit_read(Command cmd) { submit(std::move(cmd)); }

  // True iff submit_read() bypasses the log (answers via deliver_read).
  // Runtimes use this to decide which reply path a read will take.
  [[nodiscard]] virtual bool supports_local_reads() const { return false; }

  // A message from a peer replica.
  virtual void on_message(const Message& m) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  // Reports the protocol's cumulative counters into `sink`, one
  // (name, value) pair per counter (names end in "_total"). Called at
  // metrics-snapshot time on the protocol's execution thread. Default:
  // nothing to report.
  virtual void fill_metrics(const obs::MetricSink& sink) const { (void)sink; }
};

}  // namespace crsm
