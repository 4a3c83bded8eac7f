#include "storage/log_mirror.h"

#include <unordered_set>

namespace crsm {

void LogMirror::append(const LogRecord& r) {
  entries_.push_back(Entry{r.ts.ticks, r.ts.origin, r.type});
  if (r.type == LogType::kPrepare) {
    commands_.push_back(r.cmd);
    payload_bytes_ += r.cmd.payload.size();
  }
}

template <class Drop>
void LogMirror::erase_if(Drop drop) {
  std::size_t kept = 0;
  std::size_t kept_cmds = 0;
  std::size_t cmd = 0;
  for (const Entry& e : entries_) {
    const bool prepare = e.type == LogType::kPrepare;
    if (drop(e)) {
      if (prepare) payload_bytes_ -= commands_[cmd++].payload.size();
      continue;
    }
    entries_[kept++] = e;
    if (prepare) {
      if (kept_cmds != cmd) commands_[kept_cmds] = std::move(commands_[cmd]);
      ++kept_cmds;
      ++cmd;
    }
  }
  entries_.resize(kept);
  commands_.resize(kept_cmds);
}

void LogMirror::truncate_prefix(Timestamp upto) {
  // Not a literal prefix: PREPAREs arrive out of timestamp order.
  erase_if([upto](const Entry& e) { return e.ts() <= upto; });
}

void LogMirror::remove_uncommitted_above(
    Timestamp bound, const std::function<bool(const Timestamp&)>& keep) {
  std::unordered_set<Timestamp, TimestampHash> committed;
  for (const Entry& e : entries_) {
    if (e.type == LogType::kCommit) committed.insert(e.ts());
  }
  std::unordered_set<Timestamp, TimestampHash> removed;
  erase_if([&](const Entry& e) {
    const Timestamp ts = e.ts();
    if (e.type == LogType::kCommit) return removed.contains(ts);
    if (ts <= bound || committed.contains(ts) || (keep && keep(ts))) return false;
    removed.insert(ts);
    return true;
  });
}

void LogMirror::truncate_to(std::size_t n) {
  if (n >= entries_.size()) return;
  std::size_t dropped_cmds = 0;
  for (std::size_t i = n; i < entries_.size(); ++i) {
    if (entries_[i].type == LogType::kPrepare) ++dropped_cmds;
  }
  const std::size_t kept_cmds = commands_.size() - dropped_cmds;
  for (std::size_t i = kept_cmds; i < commands_.size(); ++i) {
    payload_bytes_ -= commands_[i].payload.size();
  }
  entries_.resize(n);
  commands_.resize(kept_cmds);
}

}  // namespace crsm
