#include "mencius/mencius.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "storage/recovery.h"

namespace crsm {

MenciusReplica::MenciusReplica(ProtocolEnv& env, std::vector<ReplicaId> replicas)
    : env_(env), replicas_(std::move(replicas)), skip_bound_(replicas_.size(), 0) {
  if (replicas_.empty()) throw std::invalid_argument("empty replica set");
  self_index_ = index_of(env_.self());
  next_own_ = self_index_;
}

std::size_t MenciusReplica::index_of(ReplicaId r) const {
  auto it = std::find(replicas_.begin(), replicas_.end(), r);
  if (it == replicas_.end()) throw std::invalid_argument("replica not in set");
  return static_cast<std::size_t>(it - replicas_.begin());
}

Slot MenciusReplica::next_own_slot_from(Slot at_least) const {
  const Slot n = replicas_.size();
  if (at_least <= self_index_) return self_index_;
  // Smallest s >= at_least with s ≡ self_index (mod n).
  const Slot k = (at_least - self_index_ + n - 1) / n;
  return self_index_ + k * n;
}

void MenciusReplica::broadcast(const Message& m) {
  // Encode-once fan-out via the environment's transport.
  env_.multicast(replicas_, m);
}

void MenciusReplica::start() {
  const auto& records = env_.log().records();
  if (records.empty()) return;
  // Crash recovery: committed slots replay in slot order; unresolved
  // PREPAREs are restaged (a proposed slot must never be executed as a
  // skip); the replica continues as a learner (see the class comment for
  // why neither proposing nor skip-executing is sound after a restart).
  learner_mode_ = true;
  // The replayed records view the log, and delivering them can truncate it.
  const LogMirror::Hold hold(records);
  ReplayResult rr = replay_log(records);
  for (const LogRecord& r : rr.committed) {
    ++stats_.executed;
    env_.deliver(r.cmd, r.ts, /*local_origin=*/false);
  }
  if (!rr.committed.empty()) next_exec_ = rr.committed.back().ts.ticks + 1;
  for (const LogRecord& r : rr.unresolved) {
    if (r.ts.ticks < next_exec_) continue;
    SlotState& st = slots_[r.ts.ticks];
    st.cmd = r.cmd;
    st.has_cmd = true;
  }
  Slot floor = next_exec_;
  for (const LogRecord& r : records) floor = std::max(floor, r.ts.ticks + 1);
  next_own_ = std::max(next_own_, next_own_slot_from(floor));
}

void MenciusReplica::submit(Command cmd) {
  if (learner_mode_) {
    // See the class comment: a restarted replica must not propose. The
    // client sees no reply and retries elsewhere (at-least-once).
    (void)cmd;
    ++stats_.rejected;
    return;
  }
  const Slot s = next_own_;
  next_own_ = s + replicas_.size();
  ++stats_.proposed;
  // Write-ahead: the proposal reaches stable storage before any replica can
  // see it, so a crash between broadcast and restart can never lead to the
  // same slot being proposed again with a different command.
  env_.log().append(LogRecord::prepare(Timestamp{s, env_.self()}, cmd));
  env_.log().sync();
  Message m;
  m.type = MsgType::kMenPropose;
  m.slot = s;
  m.cmd = std::move(cmd);
  broadcast(m);  // the owner acknowledges its own proposal via loopback
}

void MenciusReplica::on_message(const Message& m) {
  switch (m.type) {
    case MsgType::kMenPropose:
      handle_propose(m);
      return;
    case MsgType::kMenAck:
      handle_ack(m);
      return;
    default:
      return;
  }
}

void MenciusReplica::handle_propose(const Message& m) {
  if (owner(m.slot) != m.from) return;  // only owners may propose a slot
  const std::size_t from_idx = index_of(m.from);

  if (m.slot >= next_exec_) {
    SlotState& st = slots_[m.slot];
    st.cmd = m.cmd;
    st.has_cmd = true;
    // Our own loopback already hit stable storage in submit() (write-ahead);
    // re-appending would double the WAL and pay a second fsync per proposal.
    if (m.from != env_.self()) {
      env_.log().append(LogRecord::prepare_view(Timestamp{m.slot, m.from}, st.cmd));
      env_.log().sync();
    }
  }

  // Owners propose their slots in increasing order and announce skips before
  // jumping ahead (FIFO), so every own slot of the sender below this one is
  // already accounted for.
  skip_bound_[from_idx] = std::max(skip_bound_[from_idx], m.slot);

  if (m.from != env_.self()) {
    // Promise to skip our own unused slots below the proposed slot, so the
    // proposer does not wait for rounds we will never use. The promise is
    // carried by the broadcast acknowledgement.
    const Slot own_floor = next_own_slot_from(m.slot);
    if (own_floor > next_own_) {
      stats_.skipped += (own_floor - next_own_) / replicas_.size();
      next_own_ = own_floor;
    }
  }

  Message ack;
  ack.type = MsgType::kMenAck;
  ack.slot = m.slot;
  ack.a = next_own_;  // skip bound: our own slots below this are used/skipped
  broadcast(ack);
  try_execute();
}

void MenciusReplica::handle_ack(const Message& m) {
  const std::size_t from_idx = index_of(m.from);
  skip_bound_[from_idx] = std::max(skip_bound_[from_idx], static_cast<Slot>(m.a));
  if (m.slot >= next_exec_) {
    slots_[m.slot].acks.insert(m.from);
  }
  try_execute();
}

void MenciusReplica::try_execute() {
  for (;;) {
    auto it = slots_.find(next_exec_);
    if (it != slots_.end() && it->second.has_cmd) {
      SlotState& st = it->second;
      if (st.acks.size() < majority(replicas_.size())) return;
      SlotState done = std::move(st);
      slots_.erase(it);
      const ReplicaId own = owner(next_exec_);
      const Timestamp ts{next_exec_, own};
      env_.log().append(LogRecord::commit(ts));
      env_.log().sync();  // durability point for the client reply
      ++next_exec_;
      ++stats_.executed;
      env_.deliver(done.cmd, ts, own == env_.self());
      continue;
    }
    // Unproposed slot: executable as a skip only once its owner promised
    // not to use it. Acknowledgements prove a slot *was* proposed, so a
    // slot with recorded acks (entry present) always waits for its payload:
    // senders announce skips before proposing past them, and channels are
    // FIFO, so a skip bound never overtakes the proposal it covers. That
    // inference needs channel continuity, which a restarted replica lost —
    // in learner mode a missing slot is indistinguishable from a missed
    // proposal, so it is never skipped (the learner stalls at its gap).
    if (it == slots_.end() && !learner_mode_ &&
        skip_bound_[next_exec_ % replicas_.size()] > next_exec_) {
      ++next_exec_;
      continue;
    }
    return;
  }
}

}  // namespace crsm
