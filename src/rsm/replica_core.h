// ReplicaCore: the engine-free half of one replica, shared by SimWorld and
// NodeRuntime. Algorithm 1 defines a replica as a Log, a state machine and
// a protocol reactor; only transport, clock and timers differ between a
// simulated replica and a real one. The core owns the storage, state
// machine, protocol and submit-side batch accumulator, and implements once
// the boot order, the checkpoint exchange, deliver() (the single point
// where a batch envelope splits, with one checkpoint decision per entry
// after the whole batch), deliver_read() and the executed / reads / batch
// counts. An engine derives from it, supplies send/multicast, clock_now,
// schedule_after (and optionally tracer), decides when to cut_batch(), and
// reacts to each applied command and served read via on_applied/on_read.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "common/batch.h"
#include "common/command.h"
#include "common/types.h"
#include "rsm/protocol.h"
#include "rsm/state_machine.h"
#include "storage/replica_storage.h"

namespace crsm {

class ReplicaCore : public ProtocolEnv {
 public:
  using ProtocolFactory =
      std::function<std::unique_ptr<ReplicaProtocol>(ProtocolEnv&, ReplicaId)>;
  using StateMachineFactory = std::function<std::unique_ptr<StateMachine>()>;

  // Submit-side batching counters: write commands accepted into the submit
  // path vs. submissions handed to the protocol (each = one PREPARE round
  // at the origin). cmds / submissions is the achieved cmds-per-PREPARE.
  struct BatchStats {
    std::uint64_t cmds = 0;
    std::uint64_t submissions = 0;
  };

  // --- ProtocolEnv: the engine-free part ---
  [[nodiscard]] ReplicaId self() const final { return id_; }
  [[nodiscard]] CommandLog& log() final { return storage_->log(); }
  [[nodiscard]] Timestamp recovery_floor() const final {
    return storage_->recovery_floor();
  }
  [[nodiscard]] std::string encoded_checkpoint() const final {
    return storage_->encoded_checkpoint();
  }
  void install_checkpoint(std::string_view blob) final;
  void deliver(const Command& cmd, Timestamp ts, bool local_origin) final;
  void deliver_read(const Command& cmd, Timestamp read_ts) final;

  [[nodiscard]] ReplicaProtocol& protocol() { return *proto_; }
  [[nodiscard]] StateMachine& state_machine() { return *sm_; }
  [[nodiscard]] ReplicaStorage& storage() { return *storage_; }
  [[nodiscard]] const ReplicaStorage& storage() const { return *storage_; }

  // Counters, written on the execution thread and readable from any thread.
  // executed(): commands the state machine reflects, a restored or installed
  // checkpoint's included, so it is equal on every caught-up replica.
  [[nodiscard]] std::uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }
  // Reads answered at this replica, cumulative across boots.
  [[nodiscard]] std::uint64_t reads_served() const {
    return reads_served_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] BatchStats batch_stats() const {
    return {batch_cmds_.load(std::memory_order_relaxed),
            batch_submissions_.load(std::memory_order_relaxed)};
  }

  // A client write: submitted to the protocol at once when batching is off
  // (max_batch_cmds <= 1), else buffered until the batch reaches a cap or
  // the engine calls cut_batch().
  void enqueue_write(Command cmd);
  void cut_batch() { batch_.cut(); }
  [[nodiscard]] bool batch_pending() const { return !batch_.empty(); }
  // Drops the buffered writes uncut (a crash: none was acknowledged).
  void drop_batch() { batch_.clear(); }

 protected:
  // Batches are cut at `max_batch_cmds` commands or before `max_batch_bytes`
  // of payload (0 = no byte cap); see BatchAccumulator.
  ReplicaCore(ReplicaId id, std::size_t max_batch_cmds,
              std::size_t max_batch_bytes);

  // Replaces the stable storage; must be set before boot().
  void set_storage(std::unique_ptr<ReplicaStorage> storage) {
    storage_ = std::move(storage);
  }
  // Fresh volatile state over the stable storage (see the .cc). Call once
  // the engine can serve every ProtocolEnv method (protocols cache tracer()
  // at construction); the caller then calls protocol().start().
  void boot(const StateMachineFactory& make_sm,
            const ProtocolFactory& make_protocol);
  // A read that rode the replicated log was answered (see on_applied).
  void count_read_served() { bump(reads_served_); }

  // Called once per applied command, in execution order, after the state
  // machine applied it and executed() counted it. `sub` is the command's
  // position in its batch envelope (0 for a bare command).
  virtual void on_applied(const Command& cmd, Timestamp ts, std::uint32_t sub,
                          bool local_origin, const std::string& output) = 0;
  // Called once per locally served read, with its output.
  virtual void on_read(const Command& cmd, Timestamp read_ts,
                       const std::string& output) = 0;
  // Called just before each submission reaches the protocol: `members` are
  // the client commands it carries, `submission` the bare command or the
  // batch envelope. Default: nothing.
  virtual void on_submit(std::span<const Command> /*members*/,
                         const Command& /*submission*/) {}

 private:
  // Single writer (the replica's execution thread): a relaxed load and
  // store, not a read-modify-write.
  static void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  void apply(const Command& cmd, Timestamp ts, std::uint32_t sub,
             bool local_origin);
  void submit_cut(std::span<const Command> members, Command& submission);

  const ReplicaId id_;
  const bool batching_;
  std::unique_ptr<ReplicaStorage> storage_;
  std::unique_ptr<StateMachine> sm_;
  std::unique_ptr<ReplicaProtocol> proto_;
  BatchAccumulator batch_;
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> reads_served_{0};
  std::atomic<std::uint64_t> batch_cmds_{0};
  std::atomic<std::uint64_t> batch_submissions_{0};
};

}  // namespace crsm
