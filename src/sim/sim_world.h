// Builds and drives a simulated cluster of replicas for experiments/tests.
#pragma once

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "clock/sim_clock.h"
#include "common/command.h"
#include "common/types.h"
#include "rsm/protocol.h"
#include "rsm/replica_core.h"
#include "rsm/state_machine.h"
#include "sim/simulator.h"
#include "storage/command_log.h"
#include "transport/sim_transport.h"
#include "util/rng.h"
#include "util/topology.h"

namespace crsm {

// One executed command, as observed at a replica; tests compare these
// sequences across replicas to verify agreement and total order.
struct ExecRecord {
  Timestamp ts;
  Command cmd;
  Tick sim_time_us = 0;
  // Position inside the batch envelope this command rode in (0 for
  // singletons): members of one batch share ts, so per-replica execution
  // order is the lexicographic (ts, sub).
  std::uint32_t sub = 0;
};

struct SimWorldOptions {
  LatencyMatrix matrix;              // defines the number of replicas
  std::uint64_t seed = 1;
  double jitter_ms = 0.0;            // network jitter
  double clock_skew_ms = 0.0;        // per-replica skew ~ U(-skew, +skew)
  double clock_drift = 0.0;          // per-replica rate ~ 1 ± U(0, drift)
  bool count_bytes = false;
  // Every replica's log and checkpoint live in a ReplicaStorage, the class
  // crsm_node uses: it checkpoints every StorageOptions::checkpoint_every
  // (10000) executed log entries and drops the covered log prefix, so a
  // replica's log stays O(cadence + pending) however long the run.
  //
  // When non-empty, replica i's storage is durable under
  // <log_dir>/replica-<i>/ (wal.log + checkpoint.bin, synced on every
  // durability request); restart() then rebuilds it from disk, the real
  // recovery path. Empty: in-memory log and checkpoint, kept across
  // crash/restart.
  std::string log_dir;
  // Power-loss crash semantics (DST): in-memory logs become CrashLossyLogs
  // and crash(i) discards the replica's un-synced log tail, so protocols
  // must sync at their durability points to survive. Ignored when log_dir is
  // set (FileLog already persists exactly what reached the OS).
  bool lossy_crash = false;
  // Deliberate bug injection for DST harness validation: log sync() becomes
  // a no-op, so every crash loses the full tail even though the protocol
  // called sync at the right points. Only meaningful with lossy_crash.
  bool sync_is_noop = false;
  // Protocol-level command batching: writes submitted at the same simulated
  // instant at a replica accumulate and replicate as one batch envelope,
  // cut at this many commands (1 = off). Deterministic: the flush runs as a
  // same-time simulator event, after every already-enqueued submit. A crash
  // drops the replica's un-submitted buffer (those commands were never
  // acknowledged).
  std::size_t max_batch_cmds = 1;
  // Keep the per-replica execution trace (execution()): one ExecRecord,
  // command payload included, per executed command at every replica. The
  // DST runner and the tests compare these traces; an experiment that only
  // observes commits through the commit hook turns it off, or the trace
  // alone grows with the run's length.
  bool record_execution = true;
};

// Owns the simulator, network, clocks, logs, state machines and protocol
// instances of an N-replica deployment. Protocol-agnostic: the caller
// supplies factories.
class SimWorld {
 public:
  using ProtocolFactory = ReplicaCore::ProtocolFactory;
  using StateMachineFactory = ReplicaCore::StateMachineFactory;
  // (replica, cmd, ts, local_origin) for every delivery at every replica.
  using CommitHook = std::function<void(ReplicaId, const Command&, Timestamp, bool)>;
  // (replica, cmd, read_ts, output) for every locally served read. Reads
  // never appear in execution() traces: they are not part of the replicated
  // order, and per-replica read interleavings would fail the agreement
  // checks that compare those traces.
  using ReadHook =
      std::function<void(ReplicaId, const Command&, Timestamp, std::string_view)>;

  SimWorld(SimWorldOptions opt, ProtocolFactory protocol_factory,
           StateMachineFactory sm_factory);
  ~SimWorld();

  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  // Calls start() on every replica; must be called once before running.
  void start();

  [[nodiscard]] std::size_t num_replicas() const { return replicas_.size(); }
  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] SimTransport& network() { return *network_; }
  [[nodiscard]] ReplicaProtocol& protocol(ReplicaId i);
  [[nodiscard]] StateMachine& state_machine(ReplicaId i);
  [[nodiscard]] CommandLog& log(ReplicaId i);
  [[nodiscard]] SimClock& clock(ReplicaId i);
  [[nodiscard]] Rng& rng() { return rng_; }

  // Enqueues a client command at replica i (runs via the event loop).
  void submit(ReplicaId i, Command cmd);

  // Enqueues a read-only client command at replica i. Protocols with a local
  // read path answer it via the read hook once the replica's stability point
  // passes the read timestamp; others ride it through the log (commit hook).
  void submit_read(ReplicaId i, Command cmd);

  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }
  void set_read_hook(ReadHook hook) { read_hook_ = std::move(hook); }

  // Local reads served at replica i since construction (cumulative across
  // restarts).
  [[nodiscard]] std::uint64_t reads_served(ReplicaId i) const;

  // Executed commands in execution order, per replica; empty unless
  // opt.record_execution. restart() clears it (the replay refills it from
  // the log above the checkpoint), and a checkpoint installed by catch-up
  // stands in for every command it covers without adding records.
  [[nodiscard]] const std::vector<ExecRecord>& execution(ReplicaId i) const;

  // --- failure injection ---
  // Crashes replica i: drops its traffic, stops its handlers and timers.
  void crash(ReplicaId i);
  [[nodiscard]] bool crashed(ReplicaId i) const;
  // Restarts replica i with a fresh protocol instance built by the factory;
  // the replica keeps its log and checkpoint (stable storage survives
  // crashes; a file-backed replica reopens them from disk) but loses soft
  // state; its state machine is rebuilt from the checkpoint (if any) plus
  // log replay in start().
  void restart(ReplicaId i);

  // --- checkpointing (Section V-B) ---
  // Snapshots replica i's state machine as of commit timestamp
  // `last_applied` and truncates the covered log prefix, on top of the
  // automatic cadence. The checkpoint is durable: it survives crash() and
  // is installed on restart().
  void take_checkpoint(ReplicaId i, Timestamp last_applied, Epoch epoch);
  [[nodiscard]] bool has_checkpoint(ReplicaId i) const;

 private:
  struct ReplicaCtx;

  SimWorldOptions opt_;
  ProtocolFactory protocol_factory_;
  StateMachineFactory sm_factory_;
  Rng rng_;
  Simulator sim_;
  std::unique_ptr<SimTransport> network_;
  std::vector<std::unique_ptr<ReplicaCtx>> replicas_;
  CommitHook commit_hook_;
  ReadHook read_hook_;
};

}  // namespace crsm
