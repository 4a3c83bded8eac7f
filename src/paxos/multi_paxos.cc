#include "paxos/multi_paxos.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "storage/recovery.h"

namespace crsm {

PaxosReplica::PaxosReplica(ProtocolEnv& env, std::vector<ReplicaId> replicas,
                           ReplicaId leader, PaxosMode mode)
    : env_(env), replicas_(std::move(replicas)), leader_(leader), mode_(mode) {
  if (replicas_.empty()) throw std::invalid_argument("empty replica set");
  if (std::find(replicas_.begin(), replicas_.end(), leader_) == replicas_.end()) {
    throw std::invalid_argument("leader not in replica set");
  }
}

void PaxosReplica::broadcast(const Message& m) {
  // Encode-once fan-out via the environment's transport.
  env_.multicast(replicas_, m);
}

void PaxosReplica::start() {
  const auto& records = env_.log().records();
  if (records.empty()) return;
  // Crash recovery: committed slots replay in slot order; unresolved
  // PREPAREs are restaged so a later commit notification can still execute
  // them. next_slot_ advances past every slot this replica has ever logged —
  // with the write-ahead append in leader_propose that covers every slot a
  // restarted leader could have proposed, so slots are never reused.
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
    st.origin = r.ts.origin;
    st.has_cmd = true;
  }
  for (const LogRecord& r : records) {
    next_slot_ = std::max(next_slot_, r.ts.ticks + 1);
  }
}

void PaxosReplica::submit(Command cmd) {
  if (is_leader()) {
    leader_propose(std::move(cmd), env_.self());
    return;
  }
  // Forward to the leader; it will tag the command with our id so we can
  // answer our client once we learn the commit.
  Message m;
  m.type = MsgType::kForward;
  m.a = env_.self();
  m.cmd = std::move(cmd);
  ++stats_.forwarded;
  env_.send(leader_, m);
}

void PaxosReplica::leader_propose(Command cmd, ReplicaId origin) {
  const Slot slot = next_slot_++;
  ++stats_.proposed;
  // Write-ahead: the slot assignment reaches stable storage before any
  // replica can learn of it, so a leader that crashes mid-broadcast can
  // never reuse the slot for a different command after restart.
  env_.log().append(LogRecord::prepare(Timestamp{slot, origin}, cmd));
  env_.log().sync();
  Message m;
  m.type = MsgType::kPhase2a;
  m.slot = slot;
  m.a = origin;
  m.cmd = std::move(cmd);
  broadcast(m);  // includes self: the leader accepts via loopback like others
}

void PaxosReplica::on_message(const Message& m) {
  switch (m.type) {
    case MsgType::kForward:
      if (is_leader()) leader_propose(m.cmd, static_cast<ReplicaId>(m.a));
      return;
    case MsgType::kPhase2a:
      handle_phase2a(m);
      return;
    case MsgType::kPhase2b:
      handle_phase2b(m);
      return;
    case MsgType::kCommitNotify:
      handle_commit_notify(m);
      return;
    default:
      return;
  }
}

void PaxosReplica::handle_phase2a(const Message& m) {
  SlotState& st = slots_[m.slot];
  st.cmd = m.cmd;
  st.origin = static_cast<ReplicaId>(m.a);
  st.has_cmd = true;
  // The leader's own loopback already hit stable storage in leader_propose
  // (write-ahead); re-appending would double the WAL and pay a second
  // fsync per locally-assigned slot.
  if (m.from != env_.self()) {
    env_.log().append(
        LogRecord::prepare_view(Timestamp{m.slot, st.origin}, st.cmd));
    env_.log().sync();
  }

  Message ack;
  ack.type = MsgType::kPhase2b;
  ack.slot = m.slot;
  if (mode_ == PaxosMode::kClassic) {
    env_.send(leader_, ack);
  } else {
    broadcast(ack);  // Paxos-bcast: every replica learns commits directly
  }
  // The payload may arrive after the slot already gathered a quorum of
  // broadcast acks (different links race); unblock execution if so.
  try_execute();
}

void PaxosReplica::handle_phase2b(const Message& m) {
  if (m.slot < next_exec_) return;  // already executed
  SlotState& st = slots_[m.slot];
  st.acks.insert(m.from);
  if (st.committed || st.acks.size() < majority(replicas_.size())) return;

  if (mode_ == PaxosMode::kClassic) {
    // Only the leader counts 2b messages; it notifies everyone.
    st.committed = true;
    Message c;
    c.type = MsgType::kCommitNotify;
    c.slot = m.slot;
    broadcast(c);
    try_execute();
  } else {
    st.committed = true;
    try_execute();
  }
}

void PaxosReplica::handle_commit_notify(const Message& m) {
  if (m.slot < next_exec_) return;
  slots_[m.slot].committed = true;
  try_execute();
}

void PaxosReplica::try_execute() {
  // Execute strictly in slot order; a committed slot waits for its phase-2a
  // payload if the acknowledgements outran it.
  for (;;) {
    auto it = slots_.find(next_exec_);
    if (it == slots_.end() || !it->second.committed || !it->second.has_cmd) return;
    SlotState st = std::move(it->second);
    slots_.erase(it);
    const Timestamp ts{next_exec_, st.origin};
    env_.log().append(LogRecord::commit(ts));
    env_.log().sync();  // durability point for the client reply
    ++next_exec_;
    ++stats_.executed;
    env_.deliver(st.cmd, ts, st.origin == env_.self());
  }
}

}  // namespace crsm
