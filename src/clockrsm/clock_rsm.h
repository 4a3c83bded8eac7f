// Clock-RSM replication protocol (paper Algorithms 1, 2 and 3).
//
// A multi-leader state machine replication protocol that totally orders
// commands by loosely synchronized physical clock timestamps. A command
// commits at a replica once (1) a majority of replicas logged it,
// (2) its order is stable — no smaller-timestamped message can still
// arrive — and (3) all smaller-timestamped commands committed.
#pragma once

#include <bitset>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clockrsm/reconfig.h"
#include "common/message.h"
#include "common/types.h"
#include "consensus/single_decree_paxos.h"
#include "rsm/failure_detector.h"
#include "rsm/protocol.h"

namespace crsm {

// Protocol knobs. This struct is the canonical record of the paper's
// experimental defaults; benches and the harness build on these values
// rather than re-stating them.
struct ClockRsmOptions {
  // Algorithm 2: periodic clock-time broadcast (a lone proposer's latency
  // bound drops from 2*max one-way to ~majority one-way + delta/2).
  // Paper default: enabled with delta = 5 ms in all EC2 experiments
  // (Section VI-B); ablation_clocktime_delta sweeps it.
  bool clocktime_enabled = true;
  Tick clocktime_delta_us = 5'000;

  // Algorithm 3: failure-detector-driven reconfiguration. When enabled,
  // CLOCKTIME doubles as the heartbeat, so clocktime_enabled must be true.
  // The paper's latency/throughput experiments run failure-free with
  // reconfiguration off; Section V only requires the suspicion timeout to
  // exceed the CLOCKTIME interval plus worst-case delivery delay. The
  // timeout/check/retry values below are this reproduction's choices
  // satisfying that constraint for the Table III EC2 topologies (max
  // one-way ~185 ms), not paper-specified constants.
  bool reconfig_enabled = false;
  Tick fd_timeout_us = 600'000;
  Tick fd_check_interval_us = 150'000;
  Tick consensus_retry_us = 400'000;

  // Crash-restart catch-up (Section V-B, specialized for the durable TCP
  // runtime): a replica that boots with prior state (log/checkpoint) replays
  // it, then retrieves the commands it missed from live peers via
  // CATCHUPREQ/CATCHUPREPLY — an open-ended variant of the RETRIEVECMDS
  // log-range fetch — before it resumes committing and accepting clients.
  // Off by default: simulator restart tests keep replay-only behavior, and
  // the reconfiguration path subsumes catch-up via SUSPEND + consensus.
  // Requires a live majority; see docs/OPERATIONS.md.
  bool catchup_on_recovery = false;
  Tick catchup_interval_us = 100'000;  // poll until caught up
};

class ClockRsmReplica final : public ReplicaProtocol {
 public:
  // Widest replica specification: acks are tracked as one bit per spec
  // position.
  static constexpr std::size_t kMaxReplicas = 64;

  // `spec` is the administrator-fixed replica specification; the initial
  // configuration equals the specification. Throws std::invalid_argument
  // when the specification is empty, does not list this replica, or has
  // more than kMaxReplicas members.
  ClockRsmReplica(ProtocolEnv& env, std::vector<ReplicaId> spec,
                  ClockRsmOptions opt = {});

  void start() override;
  void submit(Command cmd) override;
  void on_message(const Message& m) override;
  [[nodiscard]] std::string name() const override { return "Clock-RSM"; }
  void fill_metrics(const obs::MetricSink& sink) const override;

  // Linearizable local reads (rides the paper's stability rule; see
  // docs/ARCHITECTURE.md "Linearizable local reads"). The read is assigned a
  // timestamp from this replica's monotonic send clock and queued; it is
  // served via ProtocolEnv::deliver_read once (1) every *peer's* LatestTV
  // passed the read timestamp — no smaller-timestamped write can still
  // arrive from anyone (our own sends are bounded below by the same counter
  // the read timestamp came from) — and (2) no pending write at or below the
  // read timestamp remains uncommitted. Reads are held, never served stale,
  // while the replica is frozen (reconfiguration), catching up after a
  // crash, or outside the configuration. Queued reads are soft state: a
  // crash drops them and clients retry.
  void submit_read(Command cmd) override;
  [[nodiscard]] bool supports_local_reads() const override { return true; }

  // Manually initiates reconfiguration to `new_config` (subset of Spec).
  // Also invoked automatically on failure suspicion when reconfig_enabled.
  void reconfigure(std::vector<ReplicaId> new_config);

  // --- introspection (tests, harness) ---
  [[nodiscard]] Epoch epoch() const { return epoch_; }
  [[nodiscard]] const std::vector<ReplicaId>& config() const { return config_; }
  [[nodiscard]] const std::vector<ReplicaId>& spec() const { return spec_; }
  [[nodiscard]] Timestamp last_commit_ts() const { return last_commit_ts_; }
  [[nodiscard]] std::size_t pending_count() const { return pending_size_; }
  // True when `ts` waits in PendingCmds.
  [[nodiscard]] bool is_pending(Timestamp ts) const { return find_pending(ts) != nullptr; }
  // PREPAREOKs held for a PREPARE that has not arrived (yet).
  [[nodiscard]] std::size_t early_ack_count() const { return early_acks_.size(); }
  [[nodiscard]] std::size_t pending_read_count() const {
    return pending_reads_.size();
  }
  [[nodiscard]] bool frozen() const { return frozen_; }
  [[nodiscard]] bool catching_up() const { return catching_up_; }
  [[nodiscard]] bool in_config() const;

  struct Stats {
    std::uint64_t committed = 0;
    std::uint64_t prepares_sent = 0;
    std::uint64_t clocktimes_sent = 0;
    std::uint64_t clock_waits = 0;      // line-8 waits actually taken
    std::uint64_t reconfigurations = 0;
    std::uint64_t catchup_rounds = 0;   // CATCHUPREQ broadcasts sent
    std::uint64_t catchup_commits = 0;  // commands committed via catch-up
    std::uint64_t reads_submitted = 0;  // local reads accepted
    std::uint64_t reads_served = 0;     // local reads answered
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  // Distinct ackers of one timestamp: bit i stands for spec_[i].
  using AckSet = std::bitset<kMaxReplicas>;
  // A pending command, held inline in its origin's run (the origin is the
  // run's slot, so only the ticks are stored). The command itself stays in
  // the log, named by its position (Algorithm 1: PendingCmds holds
  // timestamps, the Log holds commands).
  struct PendingEntry {
    Tick ticks = 0;
    AckSet acks;
    LogPosition pos = 0;
  };
  static_assert(sizeof(PendingEntry) == 24);
  // Acks for a timestamp whose PREPARE has not arrived (yet).
  struct EarlyAck {
    Timestamp ts;
    AckSet acks;
  };

  // --- Algorithm 1 ---
  void handle_request(Command cmd);
  void handle_prepare(const Message& m);
  void ack_prepare(Timestamp ts, Epoch epoch_at_receipt);
  void handle_prepare_ok(const Message& m);
  void handle_clock_time(const Message& m);
  void maybe_commit();
  [[nodiscard]] bool stable(Timestamp ts) const;

  // --- local read path ---
  void maybe_serve_reads();
  [[nodiscard]] bool read_stable(Tick read_ts) const;

  // --- Algorithm 2 ---
  void arm_clocktime_timer();

  // --- Algorithm 3 ---
  void handle_suspend(const Message& m);
  void handle_suspend_ok(const Message& m);
  void handle_retrieve_cmds(const Message& m);
  void handle_retrieve_reply(const Message& m);
  void on_consensus_decide(Epoch instance, const std::string& blob);
  void try_apply_decisions();
  void apply_decision(Epoch e, const ReconfigDecision& dec);
  void send_retrieve_cmds(Epoch e);
  void finish_decision(Epoch e, const ReconfigDecision& dec,
                       std::map<Timestamp, Command> extra);
  SingleDecreePaxos& consensus(Epoch instance);
  void arm_failure_detector_timer();
  void replay_from_log();

  // --- crash-restart catch-up (durable runtime) ---
  void begin_catchup();
  void send_catchup_request();
  void arm_catchup_timer();
  void handle_catchup_req(const Message& m);
  void handle_catchup_reply(const Message& m);
  void maybe_set_catchup_barrier(bool fallback);
  void maybe_finish_catchup();

  void broadcast(Message m);
  [[nodiscard]] Tick next_send_ticks();
  [[nodiscard]] Tick min_latest_tv() const;
  // Position of `r` in spec_ (spec_.size() when absent). Every configuration
  // is a subset of spec_ (reconfigure() enforces it), so a config member
  // always has a slot.
  [[nodiscard]] std::size_t slot(ReplicaId r) const;
  // Records `from` as an acker of `ts`; returns the ackers so far.
  const AckSet& add_acker(Timestamp ts, ReplicaId from);

  // --- pending runs ---
  // The entry for `ts`, or nullptr.
  [[nodiscard]] const PendingEntry* find_pending(Timestamp ts) const;
  [[nodiscard]] PendingEntry* find_pending(Timestamp ts) {
    return const_cast<PendingEntry*>(std::as_const(*this).find_pending(ts));
  }
  // Stages the PREPARE logged at `pos` for `ts` in its origin's run,
  // adopting any early acks; false (and no effect) when `ts` is already
  // pending or its origin is outside the specification.
  bool stage(Timestamp ts, LogPosition pos);
  // Drops the entry for `ts`; false when there is none.
  bool erase_pending(Timestamp ts);
  // The slot whose run holds the smallest pending timestamp (runs_.size()
  // when nothing is pending).
  [[nodiscard]] std::size_t least_run() const;
  // Drops every pending entry and early ack at or below last_commit_ts_.
  void drop_committed_pending();
  // Drops early acks that commits have passed.
  void prune_early_acks();

  ProtocolEnv& env_;
  ClockRsmOptions opt_;
  // Commit-pipeline tracer, cached from the env at construction (nullptr in
  // untraced environments). Every stamp site checks active() first, so the
  // cost without live spans is one pointer test.
  obs::CommitTracer* tracer_ = nullptr;

  // Hard state (beyond the log, which lives in the env).
  std::vector<ReplicaId> spec_;
  std::vector<ReplicaId> config_;
  Epoch epoch_ = 0;

  // Soft state (Table I): PendingCmds and the replication counter, as one
  // run per specification slot. Each origin sends its PREPAREs in
  // timestamp order over a FIFO channel, so its run grows at the back and
  // commits from the front; the commit scan takes the least head over the
  // runs. Only catch-up staging inserts below a run's tail (a sorted
  // insert). A deque frees its blocks as the head commits.
  //
  // Every PREPARE is logged before it is staged, and the log holds its
  // only copy. While catching up, the runs hold every logged PREPARE above
  // last_commit_ts_ (begin_catchup re-stages the replayed ones), which is
  // how a catch-up reply tells what is already logged.
  //
  // The counter tracks *distinct* ackers so duplicate PREPAREOKs
  // (crash-restart re-acks, catch-up staging) are idempotent: majority
  // means a majority of replicas, never a count that a repeated sender
  // could inflate. A PREPAREOK that beats its PREPARE (a third replica's
  // ack can take a faster path) waits in early_acks_, sorted by
  // timestamp: staging merges it, and commits prune what they pass.
  std::vector<std::deque<PendingEntry>> runs_;
  std::size_t pending_size_ = 0;
  std::vector<EarlyAck> early_acks_;
  // Reads waiting for their timestamp to become stable, keyed by read
  // timestamp (ticks from next_send_ticks(), so strictly increasing;
  // multimap because the key is a bare tick, defensive against reuse).
  std::multimap<Tick, Command> pending_reads_;
  // LatestTV, indexed by slot(). Entries of replicas outside config_ hold
  // the maximum tick, so stability is the minimum over the whole vector.
  std::vector<Tick> latest_tv_;
  Timestamp last_commit_ts_;
  Tick last_sent_ = 0;  // enforces sending in strictly increasing ts order

  // Reconfiguration state.
  bool frozen_ = false;
  bool reconfig_in_progress_ = false;
  Epoch proposed_epoch_ = 0;
  std::vector<ReplicaId> proposed_config_;
  Timestamp proposed_cts_;
  std::set<ReplicaId> suspend_oks_;
  std::map<Timestamp, Command> collected_cmds_;
  // Epochs whose collection *this incarnation* handed its log to (recorded
  // when the SUSPENDOK leaves). Deliberately volatile: after a crash the set
  // is empty, so re-applying an old decision that lists us among its
  // collectors no longer skips the follow-up catch-up — the log that earned
  // the listing died with the previous incarnation (see finish_decision).
  std::set<Epoch> contributed_epochs_;
  std::unordered_map<Epoch, std::unique_ptr<SingleDecreePaxos>> consensus_;
  std::map<Epoch, ReconfigDecision> undelivered_decisions_;
  // Normal-case messages from epochs ahead of ours, in arrival order. A
  // replica whose application of an epoch decision lags (asymmetric links,
  // state-transfer round trips) would otherwise permanently miss the new
  // epoch's first PREPAREs/PREPAREOKs — the decision only covers commands
  // from before it formed — and later commit around the hole.
  // finish_decision replays these on epoch entry; on overflow (extreme lag)
  // it falls back to a catch-up round instead.
  static constexpr std::size_t kFutureBufferCap = 16384;
  std::vector<Message> future_msgs_;
  bool future_overflow_ = false;
  // Crash-restart under reconfiguration: the first decision application
  // that lands us in the configuration runs a catch-up round (see start()).
  bool rejoin_catchup_pending_ = false;

  // State-transfer-in-progress bookkeeping (per pending decision epoch).
  // The fetch completes only after a reply whose server commit bound covers
  // the full range arrived (fetch_complete_seen_); send_retrieve_cmds
  // re-asks periodically until then.
  std::optional<Epoch> fetching_for_epoch_;
  Timestamp fetch_to_;
  std::set<ReplicaId> fetch_replies_;
  bool fetch_complete_seen_ = false;
  std::map<Timestamp, Command> fetched_cmds_;
  std::deque<Command> deferred_submits_;
  std::unique_ptr<FailureDetector> fd_;

  // Catch-up state. The barrier is the highest timestamp any peer had seen
  // when we rejoined: every command that could have been lost to the crash
  // is at or below it, so catch-up may end once last_commit_ts_ passes it.
  bool catching_up_ = false;
  bool catchup_barrier_known_ = false;
  bool catchup_all_replied_ = false;  // barrier built from every peer
  // Catch-up can run several times per instance (crash recovery, rejoin,
  // non-collector decisions); the session token invalidates a cancelled
  // round's timer chain, and polls are counted per round so the
  // majority-fallback grace period applies to each round, not the lifetime.
  std::uint64_t catchup_session_ = 0;
  std::uint64_t catchup_round_polls_ = 0;
  Timestamp catchup_barrier_;
  Timestamp catchup_candidate_barrier_;
  std::set<ReplicaId> catchup_replied_;  // peers whose first reply arrived
  // Our replayed unresolved prepares, pending confirmation that some peer
  // also holds them. One still unconfirmed when catch-up ends never left
  // this machine: it can never reach majority and is dropped (the client
  // retries), or it would head-block pending_ forever.
  std::set<Timestamp> catchup_restaged_;
  // The last CATCHUPREQ answered per requester. An identical request
  // (same epoch and commit bound) within one catchup interval is not
  // answered again: polls that queued while the requester's links were
  // down arrive back to back, and each reply can be the whole log.
  struct CatchupAnswer {
    Epoch epoch = 0;
    Timestamp ts;
    Tick at = 0;
  };
  std::unordered_map<ReplicaId, CatchupAnswer> catchup_answered_;

  Stats stats_;
};

}  // namespace crsm
