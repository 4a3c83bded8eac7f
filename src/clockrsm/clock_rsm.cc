#include "clockrsm/clock_rsm.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <set>
#include <span>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include <cstdio>
#include <cstdlib>

#include "common/codec.h"
#include "obs/trace.h"
#include "storage/checkpoint.h"
#include "storage/recovery.h"

namespace crsm {

namespace {

bool contains(const std::vector<ReplicaId>& v, ReplicaId r) {
  return std::find(v.begin(), v.end(), r) != v.end();
}

// Timestamps in (lo, hi] with a COMMIT mark in the log (catch-up
// serving/recovery needs to tell genuinely committed prepares from stale
// ones). Bounding the range keeps a reply's set to the span it asks about.
// COMMIT marks are logged in timestamp order (replay_log checks it), so a
// sorted vector holds them at 16 bytes each, not a hash node apiece.
class CommitMarks {
 public:
  explicit CommitMarks(const LogMirror& records, Timestamp lo = kZeroTimestamp,
                       Timestamp hi = {std::numeric_limits<Tick>::max(), kNoReplica}) {
    for (auto it = records.begin(); it != records.end(); ++it) {
      if (it.type() != LogType::kCommit) continue;
      const Timestamp ts = it.ts();
      if (ts > lo && ts <= hi) marks_.push_back(ts);
    }
    assert(std::is_sorted(marks_.begin(), marks_.end()));
  }
  [[nodiscard]] bool contains(const Timestamp& ts) const {
    return std::binary_search(marks_.begin(), marks_.end(), ts);
  }

 private:
  std::vector<Timestamp> marks_;
};

// Env-gated stderr trace of reconfiguration decisions (CRSM_DEBUG_RECONFIG):
// DST swarm failures in this machinery are subtle interleavings, and seeing
// propose/finish with cts, command counts and commit state per replica is
// how the divergences in docs/TESTING.md were diagnosed.
bool debug_reconfig() {
  static const bool on = std::getenv("CRSM_DEBUG_RECONFIG") != nullptr;
  return on;
}

// CRSM_DEBUG_READS traces the pending-read drain: each attempt prints the
// head read timestamp against the stability vector and the pending-write
// head — the two conditions that hold a read — which is how the staged-entry
// head-block fixed in handle_catchup_reply was found.
bool debug_reads() {
  static const bool on = std::getenv("CRSM_DEBUG_READS") != nullptr;
  return on;
}

}  // namespace

ClockRsmReplica::ClockRsmReplica(ProtocolEnv& env, std::vector<ReplicaId> spec,
                                 ClockRsmOptions opt)
    : env_(env), opt_(opt), tracer_(env.tracer()), spec_(std::move(spec)),
      config_(spec_) {
  if (spec_.empty()) throw std::invalid_argument("empty replica specification");
  if (!contains(spec_, env_.self())) {
    throw std::invalid_argument("replica not in specification");
  }
  if (spec_.size() > kMaxReplicas) {
    throw std::invalid_argument("replica specification wider than the ack bitset");
  }
  if (opt_.reconfig_enabled && !opt_.clocktime_enabled) {
    // CLOCKTIME doubles as the failure detector heartbeat.
    throw std::invalid_argument("reconfig requires the clock-time extension");
  }
  latest_tv_.assign(spec_.size(), 0);
  runs_.resize(spec_.size());
  if (opt_.reconfig_enabled) {
    std::vector<ReplicaId> peers;
    for (ReplicaId r : spec_) {
      if (r != env_.self()) peers.push_back(r);
    }
    fd_ = std::make_unique<FailureDetector>(std::move(peers), opt_.fd_timeout_us);
  }
}

void ClockRsmReplica::start() {
  const bool recovering = !env_.log().records().empty() ||
                          env_.recovery_floor() > kZeroTimestamp;
  if (recovering) replay_from_log();
  if (opt_.clocktime_enabled) arm_clocktime_timer();
  if (opt_.reconfig_enabled) {
    fd_->reset_all(env_.clock_now());
    arm_failure_detector_timer();
    if (recovering) {
      // Reintegration (Section V-B): after replaying the log, rejoin the
      // current configuration via reconfiguration. If epochs advanced while
      // we were down, stale SUSPENDs are answered with the corresponding
      // consensus decisions and we catch up epoch by epoch.
      //
      // Reconfiguration alone is not enough: when the cluster's epoch never
      // advanced past ours, the rejoin terminates by (re)applying an old
      // decision that pre-dates our crash and re-derives nothing — but
      // survivors may have committed commands during our downtime
      // (including our own unresolved tail, which they had acked). The
      // first decision application that lands us in the configuration
      // therefore follows up with a catch-up round (found by DST; the
      // minimized scenario is a regression test in tests/dst_test.cc).
      frozen_ = true;  // do not process normal traffic until reintegrated
      rejoin_catchup_pending_ = true;
      reconfigure(spec_);
    }
  } else if (recovering && opt_.catchup_on_recovery) {
    begin_catchup();
  }
}

void ClockRsmReplica::replay_from_log() {
  // Crash recovery (Section V-B): committed commands replay in timestamp
  // order; PREPARE entries without a COMMIT mark stay unresolved until the
  // replica rejoins via reconfiguration (which re-derives them from a
  // majority), so they are intentionally not re-entered into PendingCmds.
  const Timestamp floor = env_.recovery_floor();
  // The replayed records view the log, and delivering them can truncate it.
  const LogMirror::Hold hold(env_.log().records());
  ReplayResult rr = replay_log(env_.log().records());
  for (const LogRecord& r : rr.committed) {
    if (r.ts > floor) env_.deliver(r.cmd, r.ts, /*local_origin=*/false);
  }
  last_commit_ts_ = std::max(floor, rr.last_commit_ts);
  last_sent_ = last_commit_ts_.ticks;
  for (const LogRecord& r : env_.log().records()) {
    if (r.ts.origin == env_.self()) last_sent_ = std::max(last_sent_, r.ts.ticks);
  }
  for (Tick& tv : latest_tv_) tv = std::max(tv, last_commit_ts_.ticks);
}

bool ClockRsmReplica::in_config() const { return contains(config_, env_.self()); }

Tick ClockRsmReplica::next_send_ticks() {
  Tick t = env_.clock_now();
  if (t <= last_sent_) t = last_sent_ + 1;
  last_sent_ = t;
  return t;
}

void ClockRsmReplica::broadcast(Message m) {
  // Fan-out goes through the environment's transport, which serializes the
  // message once for all destinations.
  env_.multicast(config_, std::move(m));
}

Tick ClockRsmReplica::min_latest_tv() const {
  // Entries outside config_ hold the maximum tick and never bound this.
  return *std::min_element(latest_tv_.begin(), latest_tv_.end());
}

std::size_t ClockRsmReplica::slot(ReplicaId r) const {
  return static_cast<std::size_t>(std::find(spec_.begin(), spec_.end(), r) -
                                  spec_.begin());
}

namespace {

// Orders a run's entries by ticks (one origin per run).
template <class Run>
auto run_lower_bound(Run& run, Tick ticks) {
  return std::lower_bound(run.begin(), run.end(), ticks,
                          [](const auto& e, Tick t) { return e.ticks < t; });
}

// The first early ack at or above `ts`.
template <class EarlyAcks>
auto early_lower_bound(EarlyAcks& acks, Timestamp ts) {
  return std::lower_bound(acks.begin(), acks.end(), ts,
                          [](const auto& a, const Timestamp& t) { return a.ts < t; });
}

}  // namespace

const ClockRsmReplica::AckSet& ClockRsmReplica::add_acker(Timestamp ts,
                                                          ReplicaId from) {
  AckSet* ackers = nullptr;
  if (PendingEntry* e = find_pending(ts)) {
    ackers = &e->acks;
  } else {
    auto it = early_lower_bound(early_acks_, ts);
    if (it == early_acks_.end() || it->ts != ts) {
      it = early_acks_.insert(it, EarlyAck{ts, {}});
    }
    ackers = &it->acks;
  }
  const std::size_t i = slot(from);
  if (i < spec_.size()) ackers->set(i);
  return *ackers;
}

const ClockRsmReplica::PendingEntry* ClockRsmReplica::find_pending(Timestamp ts) const {
  const std::size_t s = slot(ts.origin);
  if (s >= runs_.size()) return nullptr;
  auto& run = runs_[s];
  // Acks mostly name the newest PREPAREs: try the tail before searching.
  if (run.empty() || run.back().ticks < ts.ticks) return nullptr;
  if (run.back().ticks == ts.ticks) return &run.back();
  const auto it = run_lower_bound(run, ts.ticks);
  return it->ticks == ts.ticks ? &*it : nullptr;
}

bool ClockRsmReplica::stage(Timestamp ts, LogPosition pos) {
  const std::size_t s = slot(ts.origin);
  if (s >= runs_.size()) return false;
  auto& run = runs_[s];
  PendingEntry* e = nullptr;
  if (run.empty() || run.back().ticks < ts.ticks) {
    e = &run.emplace_back(PendingEntry{ts.ticks, {}, pos});
  } else {
    // Catch-up staging: a sorted insert below the tail.
    const auto it = run_lower_bound(run, ts.ticks);
    if (it->ticks == ts.ticks) return false;  // duplicate PREPARE
    e = &*run.insert(it, PendingEntry{ts.ticks, {}, pos});
  }
  ++pending_size_;
  if (!early_acks_.empty()) {
    const auto it = early_lower_bound(early_acks_, ts);
    if (it != early_acks_.end() && it->ts == ts) {
      e->acks = it->acks;
      early_acks_.erase(it);
    }
  }
  return true;
}

bool ClockRsmReplica::erase_pending(Timestamp ts) {
  const std::size_t s = slot(ts.origin);
  if (s >= runs_.size()) return false;
  auto& run = runs_[s];
  const auto it = run_lower_bound(run, ts.ticks);
  if (it == run.end() || it->ticks != ts.ticks) return false;
  run.erase(it);
  --pending_size_;
  return true;
}

std::size_t ClockRsmReplica::least_run() const {
  std::size_t best = runs_.size();
  for (std::size_t s = 0; s < runs_.size(); ++s) {
    if (runs_[s].empty()) continue;
    if (best == runs_.size() ||
        Timestamp{runs_[s].front().ticks, spec_[s]} <
            Timestamp{runs_[best].front().ticks, spec_[best]}) {
      best = s;
    }
  }
  return best;
}

void ClockRsmReplica::drop_committed_pending() {
  const Timestamp bound = last_commit_ts_;
  for (std::size_t s = 0; s < runs_.size(); ++s) {
    auto& run = runs_[s];
    // Within a run the origin is fixed, so `<= bound` is a cut in ticks.
    const Tick cut = spec_[s] <= bound.origin ? bound.ticks + 1 : bound.ticks;
    const auto end = run_lower_bound(run, cut);
    pending_size_ -= static_cast<std::size_t>(end - run.begin());
    run.erase(run.begin(), end);
  }
  prune_early_acks();
}

void ClockRsmReplica::prune_early_acks() {
  if (early_acks_.empty() || early_acks_.front().ts > last_commit_ts_) return;
  const auto it = std::upper_bound(
      early_acks_.begin(), early_acks_.end(), last_commit_ts_,
      [](const Timestamp& t, const EarlyAck& a) { return t < a.ts; });
  early_acks_.erase(early_acks_.begin(), it);
}

// --------------------------------------------------------------------------
// Algorithm 1: replication protocol
// --------------------------------------------------------------------------

void ClockRsmReplica::submit(Command cmd) {
  if (frozen_ || catching_up_ || !in_config()) {
    deferred_submits_.push_back(std::move(cmd));
    return;
  }
  handle_request(std::move(cmd));
}

void ClockRsmReplica::submit_read(Command cmd) {
  // The read timestamp comes from the same monotonic counter that stamps
  // our outgoing messages: it exceeds every timestamp this replica has sent
  // (and, transitively, the timestamp of every write whose commit anywhere
  // depended on one of our acks or clock gossips), so a read invoked after a
  // write completed is always ordered after that write.
  const Tick rts = next_send_ticks();
  ++stats_.reads_submitted;
  pending_reads_.emplace(rts, std::move(cmd));
  maybe_serve_reads();
}

bool ClockRsmReplica::read_stable(Tick read_ts) const {
  // Like stable(), but the replica's own entry is exempt: our future sends
  // are bounded below by last_sent_, which the read timestamp already
  // reserved, so no local write can ever be assigned a smaller timestamp.
  // Waiting for our own CLOCKTIME to loop back would only add latency.
  const std::size_t own = slot(env_.self());
  for (std::size_t i = 0; i < latest_tv_.size(); ++i) {
    if (i != own && latest_tv_[i] < read_ts) return false;
  }
  return true;
}

void ClockRsmReplica::maybe_serve_reads() {
  if (debug_reads() && !pending_reads_.empty()) {
    std::string tvs;
    for (ReplicaId r : config_) {
      tvs += std::to_string(r) + "=" + std::to_string(latest_tv_[slot(r)]) + " ";
    }
    std::fprintf(stderr,
                 "[r%u] serve_reads rts=%llu frozen=%d catchup=%d tv: %s "
                 "pending_head=%llu\n",
                 env_.self(),
                 static_cast<unsigned long long>(pending_reads_.begin()->first),
                 frozen_ ? 1 : 0, catching_up_ ? 1 : 0, tvs.c_str(),
                 static_cast<unsigned long long>(
                     pending_size_ == 0 ? 0 : runs_[least_run()].front().ticks));
  }
  // Held, not served stale: a frozen replica's state may be about to be
  // rewritten by a reconfiguration decision, and a catching-up replica's
  // state misses commands lost to its crash. A replica outside the
  // configuration receives no stability gossip at all.
  if (frozen_ || catching_up_ || !in_config()) return;
  while (!pending_reads_.empty()) {
    const auto it = pending_reads_.begin();
    const Tick rts = it->first;
    // (1) No smaller-timestamped write can still arrive from any peer.
    if (!read_stable(rts)) break;
    // (2) Every write already pending at or below the read timestamp has
    // executed here (maybe_commit drains in timestamp order, so checking
    // the head suffices).
    if (pending_size_ > 0 && runs_[least_run()].front().ticks <= rts) break;
    Command cmd = std::move(it->second);
    pending_reads_.erase(it);
    ++stats_.reads_served;
    if (tracer_ != nullptr && tracer_->active()) {
      // Read-path "stability wait satisfied" point.
      tracer_->stamp(cmd.client, cmd.seq, obs::Stage::kStable,
                     obs::trace_now_us());
    }
    env_.deliver_read(cmd, Timestamp{rts, env_.self()});
  }
}

void ClockRsmReplica::handle_request(Command cmd) {
  // Lines 1-3: assign the latest clock time and broadcast PREPARE.
  Message m;
  m.type = MsgType::kPrepare;
  m.epoch = epoch_;
  m.ts = Timestamp{next_send_ticks(), env_.self()};
  if (tracer_ != nullptr && tracer_->active()) {
    // From here on the command is known protocol-wide by its timestamp;
    // later stamp sites (ack quorum, commit scan) key by it.
    tracer_->bind_ts(cmd.client, cmd.seq, m.ts);
  }
  m.cmd = std::move(cmd);
  ++stats_.prepares_sent;
  const Timestamp ts = m.ts;
  broadcast(std::move(m));
  if (tracer_ != nullptr && tracer_->active()) {
    tracer_->stamp_ts(ts, obs::Stage::kBroadcast, obs::trace_now_us());
  }
}

void ClockRsmReplica::on_message(const Message& m) {
  if (fd_) fd_->heartbeat(m.from, env_.clock_now());

  switch (m.type) {
    // Consensus messages are routed by instance id regardless of epoch.
    case MsgType::kConsPrepare:
    case MsgType::kConsPromise:
    case MsgType::kConsAccept:
    case MsgType::kConsAccepted:
    case MsgType::kConsDecide:
      consensus(m.epoch).on_message(m);
      return;

    case MsgType::kSuspend:
      handle_suspend(m);
      return;
    case MsgType::kSuspendOk:
      handle_suspend_ok(m);
      return;
    case MsgType::kRetrieveCmds:
      handle_retrieve_cmds(m);
      return;
    case MsgType::kRetrieveReply:
      handle_retrieve_reply(m);
      return;

    // Catch-up is epoch-agnostic like the retrieve machinery: a recovering
    // replica's epoch may lag the group's.
    case MsgType::kCatchupReq:
      handle_catchup_req(m);
      return;
    case MsgType::kCatchupReply:
      handle_catchup_reply(m);
      return;

    case MsgType::kPrepare:
    case MsgType::kPrepareOk:
    case MsgType::kClockTime:
      // Normal-case messages are only meaningful within the current epoch
      // (Section V-A: the epoch number lets us ignore messages from older
      // epochs). Newer-epoch PREPARE/PREPAREOK are *buffered*, not dropped:
      // the consensus decision brings us up to date about everything before
      // it formed, but commands proposed in the new epoch while our
      // application of the decision lagged are covered by nothing else —
      // dropping them leaves a hole this replica would later commit around
      // (found by DST; minimized scenario in tests/dst_test.cc). CLOCKTIME
      // is pure stability gossip and safe to drop: fresh ones arrive every
      // delta.
      if (m.epoch != epoch_) {
        if (m.epoch > epoch_ && m.type != MsgType::kClockTime) {
          if (future_msgs_.size() < kFutureBufferCap) {
            future_msgs_.push_back(m);  // copy-on-retain owns the payload
          } else {
            future_overflow_ = true;
          }
        }
        if (m.epoch < epoch_) {
          // Help a laggard catch up: answer with the decision that created
          // our current epoch (idempotent; decisions are self-contained).
          auto it = consensus_.find(epoch_);
          if (it != consensus_.end() && it->second->decided()) {
            Message d;
            d.type = MsgType::kConsDecide;
            d.epoch = epoch_;
            d.blob = it->second->decision();
            env_.send(m.from, std::move(d));
          }
        }
        return;
      }
      if (m.type == MsgType::kPrepare) {
        handle_prepare(m);
      } else if (m.type == MsgType::kPrepareOk) {
        handle_prepare_ok(m);
      } else {
        handle_clock_time(m);
      }
      return;

    default:
      return;  // not a Clock-RSM message
  }
}

void ClockRsmReplica::handle_prepare(const Message& m) {
  // Line 8 of Algorithm 3: a suspended replica stops processing PREPARE.
  if (frozen_) return;
  if (!contains(config_, m.from)) return;
  if (m.ts <= last_commit_ts_) return;  // defensive: already superseded

  // Lines 4-7. The log keeps the one copy of the command, straight from
  // the receive buffer; the pending entry names it by position.
  const LogPosition pos = env_.log().append(LogRecord::prepare_view(m.ts, m.cmd));
  stage(m.ts, pos);  // a duplicate PREPARE leaves the entry as it was
  Tick& tv = latest_tv_[slot(m.from)];
  tv = std::max(tv, m.ts.ticks);
  env_.log().sync();
  if (tracer_ != nullptr && m.ts.origin == env_.self() && tracer_->active()) {
    // Own PREPARE looped back: the origin's WAL record is (group-commit
    // pending) durable from here.
    tracer_->stamp_ts(m.ts, obs::Stage::kWalAppend, obs::trace_now_us());
  }

  // Lines 8-10: wait until ts < Clock, then acknowledge to all replicas.
  // The wait is highly unlikely with reasonably synchronized clocks; it only
  // triggers when the sender's clock runs ahead of ours by more than the
  // one-way network latency.
  const Tick now = env_.clock_now();
  if (now > m.ts.ticks) {
    ack_prepare(m.ts, epoch_);
  } else {
    ++stats_.clock_waits;
    env_.schedule_after(m.ts.ticks - now + 1,
                        [this, ts = m.ts, e = epoch_] { ack_prepare(ts, e); });
  }
  maybe_commit();
}

void ClockRsmReplica::ack_prepare(Timestamp ts, Epoch epoch_at_receipt) {
  if (frozen_ || epoch_ != epoch_at_receipt) return;
  Message ok;
  ok.type = MsgType::kPrepareOk;
  ok.epoch = epoch_;
  ok.ts = ts;
  ok.clock_ts = next_send_ticks();
  broadcast(std::move(ok));
}

void ClockRsmReplica::handle_prepare_ok(const Message& m) {
  if (!contains(config_, m.from)) return;
  // Lines 11-13.
  Tick& tv = latest_tv_[slot(m.from)];
  tv = std::max(tv, m.clock_ts);
  if (m.ts > last_commit_ts_) {
    const AckSet& ackers = add_acker(m.ts, m.from);
    if (tracer_ != nullptr && m.ts.origin == env_.self() &&
        ackers.count() >= majority(spec_.size()) && tracer_->active()) {
      tracer_->stamp_ts(m.ts, obs::Stage::kQuorumAck, obs::trace_now_us());
    }
  }
  maybe_commit();
}

void ClockRsmReplica::handle_clock_time(const Message& m) {
  if (!contains(config_, m.from)) return;
  Tick& tv = latest_tv_[slot(m.from)];
  tv = std::max(tv, m.clock_ts);
  maybe_commit();
}

bool ClockRsmReplica::stable(Timestamp ts) const {
  // Because every replica sends messages in strictly increasing timestamp
  // order over FIFO links, LatestTV[k] >= ts.ticks means no message (and in
  // particular no PREPARE) with a smaller timestamp can still arrive.
  return ts.ticks <= min_latest_tv();
}

void ClockRsmReplica::maybe_commit() {
  // A suspended replica must not commit: suspension (Algorithm 3 line 8)
  // halts normal-case processing *as a whole*. Gating only handle_prepare
  // is not enough — PREPAREOK/CLOCKTIME still advance LatestTV, and a
  // frozen replica that discards concurrent PREPAREs while committing its
  // pending queue on that fresher stability info executes around commands
  // it never saw (found by DST: a partition outage healing mid-suspension
  // flushes exactly that message mix). The decision's command set replays
  // the suspended window consistently instead (finish_decision clears
  // pending_ and re-derives from a majority).
  if (frozen_) return;
  // A replica still catching up after a crash must not execute: commands it
  // missed while down may order below its pending head, and only the
  // catch-up replies can reveal them.
  if (catching_up_) return;
  // Lines 14-23: commit the smallest pending timestamp while (1) majority
  // replication, (2) stable order and (3) prefix replication hold. Checking
  // only the head of PendingCmds and executing in timestamp order makes
  // condition (3) inductive.
  //
  // Each command is delivered as a view of its log record; the hold keeps
  // the record's chunk alive when the delivery takes a checkpoint that
  // truncates it.
  const LogMirror::Hold hold(env_.log().records());
  while (pending_size_ > 0) {
    const std::size_t s = least_run();
    auto& run = runs_[s];
    PendingEntry& head = run.front();
    const Timestamp ts{head.ticks, spec_[s]};
    if (ts <= last_commit_ts_) {
      // Superseded while pending (e.g. committed through catch-up, or
      // covered by an installed checkpoint): executing it now would break
      // timestamp order. Drop it.
      run.pop_front();
      --pending_size_;
      continue;
    }
    if (head.acks.count() < majority(spec_.size())) break;
    if (!stable(ts)) break;
    if (tracer_ != nullptr && ts.origin == env_.self() && tracer_->active()) {
      tracer_->stamp_ts(ts, obs::Stage::kStable, obs::trace_now_us());
    }

    if (debug_reconfig()) {
      std::string who;
      for (std::size_t i = 0; i < spec_.size(); ++i) {
        if (head.acks.test(i)) who += std::to_string(spec_[i]) + ",";
      }
      std::fprintf(stderr, "[r%u] normal-commit ts=%s ackers=%s clock=%llu\n",
                   env_.self(), ts.to_string().c_str(), who.c_str(),
                   static_cast<unsigned long long>(env_.clock_now()));
    }
    const LogRecord rec = env_.log().records().at(head.pos);
    run.pop_front();
    --pending_size_;

    env_.log().append(LogRecord::commit(ts));
    // Durability point for the client reply: the commit mark must survive a
    // crash, or a restarted replica would replay a shorter history than the
    // one it acknowledged (caught by the DST durability invariant under
    // power-loss crash semantics).
    env_.log().sync();
    last_commit_ts_ = ts;
    ++stats_.committed;
    env_.deliver(rec.cmd, ts, ts.origin == env_.self());
  }
  prune_early_acks();
  // Stability just advanced (or the blocking pending head committed):
  // queued reads may now be servable. Every stability-advancing message
  // (PREPARE, PREPAREOK, CLOCKTIME) funnels through here.
  maybe_serve_reads();
}

// --------------------------------------------------------------------------
// Algorithm 2: periodic clock time broadcast
// --------------------------------------------------------------------------

void ClockRsmReplica::arm_clocktime_timer() {
  env_.schedule_after(opt_.clocktime_delta_us, [this] {
    if (!frozen_ && in_config()) {
      const Tick now = env_.clock_now();
      const Tick own = latest_tv_[slot(env_.self())];
      if (now >= own + opt_.clocktime_delta_us) {
        Message m;
        m.type = MsgType::kClockTime;
        m.epoch = epoch_;
        m.clock_ts = next_send_ticks();
        ++stats_.clocktimes_sent;
        broadcast(std::move(m));
      }
    }
    arm_clocktime_timer();
  });
}

// --------------------------------------------------------------------------
// Algorithm 3: reconfiguration
// --------------------------------------------------------------------------

SingleDecreePaxos& ClockRsmReplica::consensus(Epoch instance) {
  auto it = consensus_.find(instance);
  if (it == consensus_.end()) {
    auto inst = std::make_unique<SingleDecreePaxos>(
        env_, spec_, instance,
        [this, instance](const std::string& blob) {
          on_consensus_decide(instance, blob);
        },
        opt_.consensus_retry_us);
    it = consensus_.emplace(instance, std::move(inst)).first;
  }
  return *it->second;
}

void ClockRsmReplica::reconfigure(std::vector<ReplicaId> new_config) {
  if (reconfig_in_progress_) return;
  for (ReplicaId r : new_config) {
    if (!contains(spec_, r)) throw std::invalid_argument("config not in spec");
  }
  if (new_config.size() < majority(spec_.size())) {
    throw std::invalid_argument("new configuration below majority of spec");
  }
  if (debug_reconfig()) {
    std::fprintf(stderr, "[r%u] propose e=%llu ncfg=%zu last_commit=%s clock=%llu\n",
                 env_.self(), static_cast<unsigned long long>(epoch_ + 1),
                 new_config.size(), last_commit_ts_.to_string().c_str(),
                 static_cast<unsigned long long>(env_.clock_now()));
  }
  reconfig_in_progress_ = true;
  proposed_epoch_ = epoch_ + 1;
  proposed_config_ = std::move(new_config);
  proposed_cts_ = last_commit_ts_;
  suspend_oks_.clear();
  collected_cmds_.clear();

  Message m;
  m.type = MsgType::kSuspend;
  m.epoch = proposed_epoch_;
  m.ts = proposed_cts_;
  env_.multicast(spec_, std::move(m));
}

void ClockRsmReplica::handle_suspend(const Message& m) {
  if (m.epoch <= epoch_) {
    // Stale reconfigurer (e.g. a recovering replica many epochs behind): if
    // we know the decision of that instance, answer it directly so the
    // sender can catch up.
    auto it = consensus_.find(m.epoch);
    if (it != consensus_.end() && it->second->decided()) {
      Message d;
      d.type = MsgType::kConsDecide;
      d.epoch = m.epoch;
      d.blob = it->second->decision();
      env_.send(m.from, std::move(d));
    }
    return;
  }
  // Lines 7-10: freeze the log and hand over everything above cts.
  frozen_ = true;
  Message r;
  r.type = MsgType::kSuspendOk;
  r.epoch = m.epoch;
  std::unordered_set<Timestamp, TimestampHash> seen;
  for (const LogRecord& rec : env_.log().records()) {
    if (rec.type == LogType::kPrepare && rec.ts > m.ts && seen.insert(rec.ts).second) {
      r.records.push_back(rec);
    }
  }
  env_.send(m.from, std::move(r));
  contributed_epochs_.insert(m.epoch);
}

void ClockRsmReplica::handle_suspend_ok(const Message& m) {
  if (!reconfig_in_progress_ || m.epoch != proposed_epoch_) return;
  if (!suspend_oks_.insert(m.from).second) return;
  for (const LogRecord& rec : m.records) {
    collected_cmds_.emplace(rec.ts, rec.cmd);
  }
  if (suspend_oks_.size() >= majority(spec_.size())) {
    ReconfigDecision dec;
    dec.config = proposed_config_;
    dec.cts = proposed_cts_;
    dec.cmds.reserve(collected_cmds_.size());
    for (const auto& [ts, cmd] : collected_cmds_) {
      dec.cmds.push_back(LogRecord::prepare(ts, cmd));
    }
    dec.collectors.assign(suspend_oks_.begin(), suspend_oks_.end());
    consensus(proposed_epoch_).propose(dec.encode());
  }
}

void ClockRsmReplica::handle_retrieve_cmds(const Message& m) {
  // Lines 29-31: return logged commands with from < ts <= to.
  //
  // The requester executes everything we hand back as committed (it is
  // fetching the prefix under a decision's cts), so only prepares with an
  // actual COMMIT mark may be served: an unmarked prepare may be an orphan
  // that was superseded without ever committing anywhere, and handing it
  // out would make the fetcher execute a command the rest of the cluster
  // never will (found by DST: an orphaned proposal surviving a catch-up's
  // majority fallback was later state-transferred back to its own origin
  // rejoining after a crash). The reply carries our commit bound; commits
  // are gap-free in timestamp order, so a bound covering the range proves
  // the served set is the *complete* committed range.
  const Timestamp from = m.ts;
  const Timestamp to{m.clock_ts, static_cast<ReplicaId>(m.a)};
  Message r;
  r.type = MsgType::kRetrieveReply;
  r.epoch = m.epoch;
  r.ts = last_commit_ts_;
  const CommitMarks marks(env_.log().records(), from, to);
  std::unordered_set<Timestamp, TimestampHash> seen;
  for (const LogRecord& rec : env_.log().records()) {
    if (rec.type != LogType::kPrepare || rec.ts <= from || rec.ts > to) continue;
    if (!marks.contains(rec.ts)) continue;
    if (seen.insert(rec.ts).second) {
      r.records.push_back(rec);
    }
  }
  env_.send(m.from, std::move(r));
}

void ClockRsmReplica::handle_retrieve_reply(const Message& m) {
  if (!fetching_for_epoch_ || m.epoch != *fetching_for_epoch_) return;
  if (!fetch_replies_.insert(m.from).second) return;
  if (m.ts >= fetch_to_) fetch_complete_seen_ = true;
  for (const LogRecord& rec : m.records) {
    if (rec.ts > last_commit_ts_ && rec.ts <= fetch_to_) {
      fetched_cmds_.emplace(rec.ts, rec.cmd);
    }
  }
  // Completion needs a majority AND at least one server whose commit bound
  // covered the whole range — only that proves no committed command in
  // (last_commit, cts] is missing from the union (servers behind the range
  // serve committed subsets). apply_decision's retry timer keeps asking
  // until such a server exists; the decision's cts is some replica's commit
  // bound, so one always will.
  if (fetch_complete_seen_ && fetch_replies_.size() >= majority(spec_.size())) {
    const Epoch e = *fetching_for_epoch_;
    fetching_for_epoch_.reset();
    auto it = undelivered_decisions_.find(e);
    assert(it != undelivered_decisions_.end());
    ReconfigDecision dec = it->second;
    std::map<Timestamp, Command> extra = std::move(fetched_cmds_);
    fetched_cmds_.clear();
    finish_decision(e, dec, std::move(extra));
  }
}

// --------------------------------------------------------------------------
// Crash-restart catch-up (Section V-B, durable runtime)
//
// A replica that rebooted from its WAL has the committed prefix it synced
// before the crash, but may have lost in-flight PREPAREs (frames written to
// its dead socket) and the PREPAREOKs that replicated them. Peers can commit
// such a command without resending it to us — replication already reached a
// majority, and stability only needs our post-restart CLOCKTIME — so replay
// alone cannot rebuild the total order. Catch-up closes the gap with an
// open-ended RETRIEVECMDS-style fetch: peers return every PREPARE above our
// last commit plus their own commit bound (all their log entries at or below
// the bound are committed, in timestamp order), and we poll until our commit
// timestamp passes the barrier — the highest timestamp any peer had seen
// when we rejoined, which bounds everything the crash could have lost.
// While catching up we keep logging and acking new PREPAREs (peers stay
// unblocked; nothing new can be lost over the fresh connections) but defer
// local execution and client submissions.
// --------------------------------------------------------------------------

void ClockRsmReplica::begin_catchup() {
  if (catching_up_) return;  // a round is already in flight
  bool has_peer = false;
  for (ReplicaId r : config_) has_peer |= (r != env_.self());
  if (!has_peer) return;  // single-replica group: replay was everything
  catching_up_ = true;
  // Fresh barrier per round: catch-up may run more than once per instance
  // (crash recovery, post-rejoin, future-buffer overflow). The session
  // token kills any timer chain a cancelled round left behind; the poll
  // counter gives each round its own fallback grace period.
  ++catchup_session_;
  catchup_round_polls_ = 0;
  catchup_barrier_known_ = false;
  catchup_all_replied_ = false;
  catchup_barrier_ = kZeroTimestamp;
  catchup_candidate_barrier_ = kZeroTimestamp;
  catchup_replied_.clear();
  // Re-stage the replayed log's unresolved tail (PREPAREs with no COMMIT
  // mark) and re-announce it. If a peer also holds one of these it can now
  // reach majority again and commit — essential when *several* replicas
  // restart together and all soft state (replication counters) was lost.
  // Re-acking is idempotent: the counter tracks distinct ackers.
  const LogMirror& log = env_.log().records();
  const CommitMarks marks(log, last_commit_ts_);
  for (auto it = log.begin(); it != log.end(); ++it) {
    const Timestamp ts = it.ts();
    if (it.type() != LogType::kPrepare || ts <= last_commit_ts_ ||
        marks.contains(ts) || !stage(ts, it.position())) {
      continue;
    }
    catchup_restaged_.insert(ts);
    ack_prepare(ts, epoch_);
  }
  send_catchup_request();
  arm_catchup_timer();
}

void ClockRsmReplica::send_catchup_request() {
  Message m;
  m.type = MsgType::kCatchupReq;
  m.epoch = epoch_;
  m.ts = last_commit_ts_;
  std::vector<ReplicaId> peers;
  for (ReplicaId r : config_) {
    if (r != env_.self()) peers.push_back(r);
  }
  env_.multicast(peers, std::move(m));
  ++stats_.catchup_rounds;
}

void ClockRsmReplica::arm_catchup_timer() {
  env_.schedule_after(opt_.catchup_interval_us, [this, session = catchup_session_] {
    if (!catching_up_ || session != catchup_session_) return;
    // Barrier fallback: if some peer never answers (it crashed too), settle
    // for a majority of replies after a grace period instead of hanging.
    constexpr std::uint64_t kFallbackPolls = 20;
    ++catchup_round_polls_;
    maybe_set_catchup_barrier(catchup_round_polls_ >= kFallbackPolls);
    maybe_finish_catchup();
    if (!catching_up_ || session != catchup_session_) return;
    send_catchup_request();
    arm_catchup_timer();
  });
}

void ClockRsmReplica::handle_catchup_req(const Message& m) {
  // Read-only over our log; served even while frozen or catching up
  // ourselves — several replicas restarting together must be able to feed
  // each other, or a full-cluster restart would deadlock. The requester
  // treats every record at or below our commit bound as committed, so only
  // prepares with an actual COMMIT mark may travel below the bound: a
  // replica mid-recovery can hold stale pre-crash prepares under an
  // already-advanced bound that never committed anywhere.
  const Tick now = env_.clock_now();
  auto [prev, first] = catchup_answered_.try_emplace(m.from);
  if (!first && prev->second.epoch == m.epoch && prev->second.ts == m.ts &&
      now >= prev->second.at && now - prev->second.at < opt_.catchup_interval_us) {
    return;  // answered this very request less than an interval ago
  }
  prev->second = CatchupAnswer{m.epoch, m.ts, now};
  //
  // The reply can carry every command stalled behind a dead replica, so it
  // is encoded straight from the log: commit marks only over the span that
  // needs them, (m.ts, last_commit_ts_], then the wanted records' positions
  // in timestamp order (a duplicate PREPARE travels once, as first logged),
  // and each record's WAL bytes copied into the one frame. No record is
  // decoded, and the frame goes to the transport as bytes.
  const LogMirror& log = env_.log().records();
  const CommitMarks marks(log, m.ts, last_commit_ts_);
  const auto wanted = [&](const LogMirror::const_iterator& it) {
    const Timestamp ts = it.ts();
    return it.type() == LogType::kPrepare && ts > m.ts &&
           (ts > last_commit_ts_ || marks.contains(ts));
  };
  std::size_t n = 0;
  for (auto it = log.begin(); it != log.end(); ++it) n += wanted(it) ? 1 : 0;
  std::vector<LogPosition> positions;
  positions.reserve(n);
  for (auto it = log.begin(); it != log.end(); ++it) {
    if (wanted(it)) positions.push_back(it.position());
  }
  const auto by_ts = [&](LogPosition a, LogPosition b) {
    return log.ts_at(a) < log.ts_at(b);
  };
  std::stable_sort(positions.begin(), positions.end(), by_ts);
  positions.erase(std::unique(positions.begin(), positions.end(),
                              [&](LogPosition a, LogPosition b) {
                                return log.ts_at(a) == log.ts_at(b);
                              }),
                  positions.end());
  std::size_t record_bytes = 0;
  for (const LogPosition pos : positions) record_bytes += log.record_bytes(pos).size();

  Message r;
  r.type = MsgType::kCatchupReply;
  r.from = env_.self();
  r.epoch = epoch_;
  r.ts = last_commit_ts_;
  if (env_.recovery_floor() > m.ts) {
    // Our log was truncated past the requested range; the checkpoint stands
    // in for the missing committed prefix.
    r.blob = env_.encoded_checkpoint();
    r.a = r.blob.empty() ? 0 : 1;
  }
  std::string frame;
  r.encode_head(&frame, positions.size(), record_bytes);
  for (const LogPosition pos : positions) frame += log.record_bytes(pos);
  r.encode_tail(&frame);
  env_.send_encoded(m.from, std::move(frame));
}

void ClockRsmReplica::handle_catchup_reply(const Message& m) {
  if (!catching_up_) return;

  // The barrier only grows from *first* replies: anything a later reply
  // adds arrived over the fresh (reliable) connections and is not at risk.
  //
  // It covers peers' COMMIT bounds, not their open prepares: every command
  // committed anywhere is at or under some peer's bound (all-replied case)
  // or majority-logged and therefore staged below (fallback case), while
  // open prepares the replies carry are staged into pending_ and acked —
  // once staged they can never be committed *around*, so they need not
  // commit before catch-up ends. Waiting for them would deadlock when
  // several replicas catch up at once: each would defer exactly the
  // commits the others' barriers wait for.
  const Timestamp peer_bound = m.ts;
  for (const LogRecord& rec : m.records) {
    catchup_restaged_.erase(rec.ts);  // a peer holds it too: not an orphan
  }
  if (catchup_replied_.insert(m.from).second) {
    catchup_candidate_barrier_ = std::max(catchup_candidate_barrier_, peer_bound);
    maybe_set_catchup_barrier(/*fallback=*/false);
  }

  // A checkpoint replaces the committed prefix our peer's log no longer
  // holds (and anything we replayed below it). Everything the snapshot
  // covers must leave the soft state too: a pending entry at or below the
  // new commit floor is already executed inside the snapshot, and running
  // it again through maybe_commit would re-execute it out of order.
  if (m.a == 1 && !m.blob.empty()) {
    // The covered timestamp leads the encoding; peek it without decoding
    // the (potentially large) snapshot twice — install does the full parse.
    Decoder peek(m.blob.view());
    const Timestamp cp_last_applied = peek.timestamp();
    if (cp_last_applied > last_commit_ts_) {
      env_.install_checkpoint(m.blob.view());
      last_commit_ts_ = cp_last_applied;
      drop_committed_pending();
    }
  }

  // A reply travels sorted by timestamp and unique (handle_catchup_req) and
  // is walked in place. Any other order is sorted into a copy first, the
  // first record of a timestamp winning.
  std::span<const LogRecord> records = m.records;
  std::vector<LogRecord> reordered;
  const auto not_before = [](const LogRecord& a, const LogRecord& b) {
    return !(a.ts < b.ts);
  };
  if (std::adjacent_find(records.begin(), records.end(), not_before) != records.end()) {
    reordered = m.records;
    const auto by_ts = [](const LogRecord& a, const LogRecord& b) { return a.ts < b.ts; };
    std::stable_sort(reordered.begin(), reordered.end(), by_ts);
    reordered.erase(std::unique(reordered.begin(), reordered.end(),
                                [](const LogRecord& a, const LogRecord& b) {
                                  return a.ts == b.ts;
                                }),
                    reordered.end());
    records = reordered;
  }
  // Split the fetched prepares at the responder's commit bound: everything
  // at or below it is committed in timestamp order (the peer's log holds no
  // uncommitted entry under its last commit), the rest is still open.
  //
  // A PREPARE above last_commit_ts_ is already logged exactly when it is
  // pending: while catching up, the runs hold every logged PREPARE above
  // last_commit_ts_.
  const auto open_begin =
      std::partition_point(records.begin(), records.end(),
                           [&](const LogRecord& rec) { return rec.ts <= m.ts; });
  bool appended = false;
  for (auto it = records.begin(); it != open_begin; ++it) {
    const LogRecord& rec = *it;
    const Timestamp ts = rec.ts;
    if (rec.type != LogType::kPrepare || ts <= last_commit_ts_) continue;
    if (find_pending(ts) == nullptr) {
      env_.log().append(LogRecord::prepare_view(ts, rec.cmd));
    }
    appended = true;
    if (debug_reconfig()) {
      std::fprintf(stderr, "[r%u] catchup-commit ts=%s from=%u bound=%s\n",
                   env_.self(), ts.to_string().c_str(), m.from,
                   m.ts.to_string().c_str());
    }
    env_.log().append(LogRecord::commit(ts));
    last_commit_ts_ = ts;
    ++stats_.committed;
    ++stats_.catchup_commits;
    erase_pending(ts);
    env_.deliver(rec.cmd, ts, ts.origin == env_.self());
  }
  prune_early_acks();
  // Open entries are staged like a normal PREPARE and acked: when several
  // replicas recover together the pre-crash replication counters are gone,
  // so these re-acks are what lets an in-flight command reach majority
  // again (idempotent — the counter tracks distinct ackers). As in
  // handle_prepare, the durability request precedes the ack, so a durable
  // environment holds the PREPAREOK until the append is actually stable.
  //
  // The responder counts as an acker of every open entry its reply carries:
  // the reply is read from its log, and a stably logged PREPARE is exactly
  // what a PREPAREOK attests. This substitutes for the acks broadcast while
  // we were down (lost with the crash) — without it, a staged entry whose
  // live peers already hold a majority would wait here for re-acks that are
  // never coming, head-blocking maybe_commit at this replica forever while
  // the rest of the cluster commits it and moves on.
  for (auto it = open_begin; it != records.end(); ++it) {
    const LogRecord& rec = *it;
    const Timestamp ts = rec.ts;
    if (rec.type != LogType::kPrepare || ts <= last_commit_ts_) continue;
    add_acker(ts, m.from);
    if (find_pending(ts) != nullptr) continue;
    // Adopts the responder's ack from early_acks_.
    stage(ts, env_.log().append(LogRecord::prepare_view(ts, rec.cmd)));
    env_.log().sync();
    appended = false;  // the sync request covers everything appended so far
    ack_prepare(ts, epoch_);
  }
  // One trailing durability request when commits were appended without a
  // subsequent open-entry sync; skipped entirely for an empty reply (no
  // pointless fdatasync per poll round).
  if (appended) env_.log().sync();
  maybe_finish_catchup();
}

void ClockRsmReplica::maybe_set_catchup_barrier(bool fallback) {
  if (catchup_barrier_known_) return;
  std::size_t peers = 0;
  for (ReplicaId r : config_) peers += (r != env_.self()) ? 1 : 0;
  const bool all = catchup_replied_.size() >= peers;
  const bool quorum = catchup_replied_.size() + 1 >= majority(spec_.size());
  if (all || (fallback && quorum)) {
    catchup_barrier_known_ = true;
    catchup_all_replied_ = all;
    catchup_barrier_ = catchup_candidate_barrier_;
  }
}

void ClockRsmReplica::maybe_finish_catchup() {
  if (!catching_up_ || !catchup_barrier_known_) return;
  if (last_commit_ts_ < catchup_barrier_) return;
  catching_up_ = false;
  // Orphans: re-staged prepares no reply confirmed exist only on this
  // machine. They can never reach majority (peers may even have committed
  // past them), so left pending they would head-block maybe_commit forever.
  // Drop them — their clients retry (at-least-once). Only with replies from
  // *every* peer is "no one else has it" actually known; under the
  // majority fallback a silent peer might still hold (and later commit) the
  // entry, so there the conservative choice is to keep it pending.
  std::set<Timestamp> dropped;
  if (catchup_all_replied_) {
    for (const Timestamp& ts : catchup_restaged_) {
      if (ts > last_commit_ts_ && erase_pending(ts)) dropped.insert(ts);
    }
  }
  catchup_restaged_.clear();
  // Restore the committed-prefix invariant: a pre-crash PREPARE of ours that
  // no majority saw has no COMMIT mark but may now sit below last_commit_ts_
  // (or is a dropped orphan above it); it must not linger, or a later
  // catch-up/retrieve served from this log would hand it out again. Only
  // rewrite the log when such a record actually exists — a FileLog rewrite
  // is a full rewrite.
  const CommitMarks marks(env_.log().records());
  bool stale = false;
  for (const LogRecord& rec : env_.log().records()) {
    if (rec.type == LogType::kPrepare && !marks.contains(rec.ts) &&
        (rec.ts <= last_commit_ts_ || dropped.contains(rec.ts))) {
      stale = true;
      break;
    }
  }
  if (stale) {
    env_.log().remove_uncommitted_above(
        kZeroTimestamp, [this, &dropped](const Timestamp& ts) {
          return ts > last_commit_ts_ && !dropped.contains(ts);
        });
  }
  const Tick base = last_commit_ts_.ticks;
  for (Tick& tv : latest_tv_) tv = std::max(tv, base);
  last_sent_ = std::max(last_sent_, base);
  catchup_replied_.clear();
  while (!deferred_submits_.empty()) {
    Command c = std::move(deferred_submits_.front());
    deferred_submits_.pop_front();
    handle_request(std::move(c));
  }
  maybe_commit();
  // Reads held during catch-up now observe the recovered state.
  maybe_serve_reads();
}

void ClockRsmReplica::on_consensus_decide(Epoch instance, const std::string& blob) {
  if (instance <= epoch_) return;
  ReconfigDecision dec = ReconfigDecision::decode(blob);
  // reconfigure() only proposes subsets of spec_, and per-replica state is
  // indexed by spec position: a decision naming anyone else came from
  // outside this group.
  for (ReplicaId r : dec.config) {
    if (!contains(spec_, r)) return;
  }
  undelivered_decisions_[instance] = std::move(dec);
  try_apply_decisions();
}

void ClockRsmReplica::try_apply_decisions() {
  if (fetching_for_epoch_) return;  // state transfer in flight
  // Decisions are self-contained (config + cts + all commands above cts from
  // a majority), so when several epochs are pending only the newest matters.
  while (!undelivered_decisions_.empty()) {
    auto it = std::prev(undelivered_decisions_.end());
    const Epoch e = it->first;
    if (e <= epoch_) {
      undelivered_decisions_.clear();
      return;
    }
    ReconfigDecision dec = it->second;
    undelivered_decisions_.clear();
    apply_decision(e, dec);
    return;
  }
}

void ClockRsmReplica::apply_decision(Epoch e, const ReconfigDecision& dec) {
  if (dec.cts > last_commit_ts_) {
    // Lines 12-14: we lag behind the decided timestamp; fetch the missing
    // prefix from a majority before applying the decided commands.
    frozen_ = true;
    fetching_for_epoch_ = e;
    undelivered_decisions_[e] = dec;
    fetch_to_ = dec.cts;
    fetch_replies_.clear();
    fetched_cmds_.clear();
    fetch_complete_seen_ = false;
    send_retrieve_cmds(e);
    return;
  }
  finish_decision(e, dec, {});
}

void ClockRsmReplica::send_retrieve_cmds(Epoch e) {
  Message m;
  m.type = MsgType::kRetrieveCmds;
  m.epoch = e;
  m.ts = last_commit_ts_;
  m.clock_ts = fetch_to_.ticks;
  m.a = fetch_to_.origin;
  env_.multicast(spec_, m);
  // Keep asking until some server's commit bound covers the range (see
  // handle_retrieve_reply): servers still catching up toward cts answer
  // with partial content at first. Duplicate replies are deduplicated by
  // sender, so retries are idempotent.
  env_.schedule_after(opt_.consensus_retry_us, [this, e] {
    if (fetching_for_epoch_ && *fetching_for_epoch_ == e) {
      fetch_replies_.clear();
      send_retrieve_cmds(e);
    }
  });
}

void ClockRsmReplica::finish_decision(Epoch e, const ReconfigDecision& dec,
                                      std::map<Timestamp, Command> extra) {
  if (debug_reconfig()) {
    std::fprintf(stderr,
                 "[r%u] finish e=%llu cts=%s cmds=%zu extra=%zu last_commit=%s "
                 "ncfg=%zu pending=%zu clock=%llu\n",
                 env_.self(), static_cast<unsigned long long>(e),
                 dec.cts.to_string().c_str(), dec.cmds.size(), extra.size(),
                 last_commit_ts_.to_string().c_str(), dec.config.size(),
                 pending_size_, static_cast<unsigned long long>(env_.clock_now()));
  }

  // `extra` holds state-transferred commands in (last_commit_ts, dec.cts];
  // dec.cmds holds every command above dec.cts that could have committed.
  std::map<Timestamp, Command> to_apply = std::move(extra);
  std::unordered_set<Timestamp, TimestampHash> decided_set;
  for (const LogRecord& rec : dec.cmds) {
    decided_set.insert(rec.ts);
    if (rec.ts > last_commit_ts_) to_apply.emplace(rec.ts, rec.cmd);
  }

  // Line 15: drop uncommitted PREPAREs above cts that did not survive.
  env_.log().remove_uncommitted_above(
      dec.cts, [&decided_set](const Timestamp& ts) { return decided_set.contains(ts); });

  // Lines 16-20: apply the surviving commands in timestamp order.
  std::unordered_set<Timestamp, TimestampHash> in_log;
  for (const LogRecord& rec : env_.log().records()) {
    if (rec.type == LogType::kPrepare) in_log.insert(rec.ts);
  }
  for (const auto& [ts, cmd] : to_apply) {
    if (ts <= last_commit_ts_) continue;
    if (!in_log.contains(ts)) {
      env_.log().append(LogRecord::prepare(ts, cmd));
      in_log.insert(ts);
    }
    env_.log().append(LogRecord::commit(ts));
    last_commit_ts_ = ts;
    ++stats_.committed;
    env_.deliver(cmd, ts, ts.origin == env_.self());
  }
  env_.log().sync();

  // Lines 21-24: install the new epoch and configuration.
  epoch_ = e;
  config_ = dec.config;
  ++stats_.reconfigurations;
  latest_tv_.assign(spec_.size(), std::numeric_limits<Tick>::max());
  const Tick base = std::max(last_commit_ts_.ticks, dec.cts.ticks);
  for (ReplicaId r : config_) latest_tv_[slot(r)] = base;
  last_sent_ = std::max(last_sent_, base);
  for (auto& run : runs_) run.clear();
  pending_size_ = 0;
  early_acks_.clear();
  frozen_ = false;
  reconfig_in_progress_ = false;
  suspend_oks_.clear();
  collected_cmds_.clear();
  if (fd_) fd_->reset_all(env_.clock_now());

  // A catch-up round that started before this decision is now stale: its
  // staged open entries, barrier and orphan bookkeeping may be exactly what
  // the decision just truncated, and letting it keep re-staging and
  // re-acking them can resurrect a dead command at a subset of replicas
  // (found by DST: three independently catching-up replicas re-acked a
  // decision-wiped proposal back to a fake majority). Cancel it — the
  // trigger below starts a fresh round, against post-truncation logs, when
  // one is still needed.
  catching_up_ = false;
  catchup_restaged_.clear();
  catchup_replied_.clear();
  catchup_barrier_known_ = false;
  catchup_all_replied_ = false;

  // Ways this application can be blind to committed commands:
  //  * first decision since a crash-restart (see start()) — survivors may
  //    have committed during our downtime;
  //  * we were not among the decision's collectors — it was formed without
  //    our log, and anything proposed between its collection and our (late)
  //    application is covered by nothing we hold; the pending_ clear above
  //    may just have wiped exactly those entries.
  // Either way, recover from peers before executing past the gap. This must
  // start BEFORE the buffered-message replay below: catch-up defers
  // execution (maybe_commit gates on catching_up_), so a buffered
  // PREPAREOK quorum cannot make us commit around a hole the catch-up is
  // about to repair. The collectors themselves (a majority) never defer
  // here, so catch-up always completes.
  //
  // Being listed in dec.collectors only counts if *this incarnation* handed
  // its log to the collection: a restarted replica replaying the decisions
  // of epochs it slept through may find its pre-crash self among the
  // collectors, but that log is gone and covers nothing committed since the
  // collection formed. A rejoin applies those decisions in sequence, and
  // each application cancels the in-flight catch-up and clears pending_ —
  // honoring the stale listing here let the last one wipe the catch-up's
  // staged entries without starting a replacement, and the replica then
  // committed around the wiped commands forever (found by DST; minimized
  // scenario pinned in tests/dst_test.cc). Live collectors keep the
  // exemption, so the majority-progress argument above is unchanged.
  const bool collector = contains(dec.collectors, env_.self()) &&
                         contributed_epochs_.contains(e);
  if (rejoin_catchup_pending_ || !collector) {
    rejoin_catchup_pending_ = false;
    begin_catchup();
  }

  // Replay normal-case messages that arrived for this epoch before we
  // entered it (see the buffer in on_message). They are handled exactly as
  // if they arrived now, in their original order — without this, a replica
  // whose decision application lagged (asymmetric links, state-transfer
  // round trips) permanently loses the new epoch's first commands and
  // later commits around the hole (found by DST; see docs/TESTING.md).
  std::vector<Message> buffered;
  buffered.swap(future_msgs_);
  for (Message& bm : buffered) {
    if (bm.epoch == epoch_) {
      on_message(bm);
    } else if (bm.epoch > epoch_) {
      future_msgs_.push_back(std::move(bm));  // still ahead of us
    }
  }
  if (future_overflow_) {
    // The buffer could not hold everything we missed: fall back to a
    // catch-up round, which re-derives the gap from peers' logs (no-op if
    // one is already in flight).
    future_overflow_ = false;
    begin_catchup();
  }

  if (in_config()) {
    // Resume processing queued client requests. While catching up they stay
    // deferred; maybe_finish_catchup drains the queue when it ends.
    while (!catching_up_ && !deferred_submits_.empty()) {
      Command c = std::move(deferred_submits_.front());
      deferred_submits_.pop_front();
      handle_request(std::move(c));
    }
  } else if (opt_.reconfig_enabled) {
    // We were removed (e.g. falsely suspected, or we are rejoining after
    // recovery): ask to be added back.
    std::vector<ReplicaId> cfg = config_;
    cfg.push_back(env_.self());
    std::sort(cfg.begin(), cfg.end());
    reconfigure(std::move(cfg));
  }
  // Reads held while frozen resume against the post-decision state (no-op
  // when we left the configuration or a catch-up round is now running).
  maybe_serve_reads();
}

void ClockRsmReplica::arm_failure_detector_timer() {
  env_.schedule_after(opt_.fd_check_interval_us, [this] {
    if (!frozen_ && !reconfig_in_progress_ && in_config()) {
      const Tick now = env_.clock_now();
      std::vector<ReplicaId> next;
      bool changed = false;
      for (ReplicaId r : config_) {
        if (r != env_.self() && fd_->is_suspect(r, now)) {
          changed = true;
        } else {
          next.push_back(r);
        }
      }
      if (changed && next.size() >= majority(spec_.size())) {
        reconfigure(std::move(next));
      }
    }
    arm_failure_detector_timer();
  });
}

void ClockRsmReplica::fill_metrics(const obs::MetricSink& sink) const {
  sink("crsm_proto_committed_total", stats_.committed);
  sink("crsm_proto_prepares_sent_total", stats_.prepares_sent);
  sink("crsm_proto_clocktimes_sent_total", stats_.clocktimes_sent);
  sink("crsm_proto_clock_waits_total", stats_.clock_waits);
  sink("crsm_proto_reconfigurations_total", stats_.reconfigurations);
  sink("crsm_proto_catchup_rounds_total", stats_.catchup_rounds);
  sink("crsm_proto_catchup_commits_total", stats_.catchup_commits);
  sink("crsm_proto_reads_submitted_total", stats_.reads_submitted);
  sink("crsm_proto_reads_served_total", stats_.reads_served);
  sink("crsm_proto_pending", pending_size_);
  sink("crsm_proto_pending_reads", pending_reads_.size());
  sink("crsm_proto_epoch", epoch_);
}

}  // namespace crsm
