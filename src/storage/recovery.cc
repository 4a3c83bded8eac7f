#include "storage/recovery.h"

#include <stdexcept>
#include <unordered_map>

namespace crsm {

ReplayResult replay_log(const LogMirror& records) {
  ReplayResult out;
  std::unordered_map<Timestamp, LogRecord, TimestampHash> staged;
  for (LogRecord r : records) {
    switch (r.type) {
      case LogType::kPrepare:
        staged.emplace(r.ts, std::move(r));  // a view: no payload copy
        break;
      case LogType::kCommit: {
        auto it = staged.find(r.ts);
        if (it == staged.end()) {
          // COMMIT marks are always logged after their PREPARE (Section V-B);
          // a violation means the log is corrupt.
          throw std::runtime_error("commit mark without prepare at ts " +
                                   r.ts.to_string());
        }
        if (r.ts < out.last_commit_ts) {
          throw std::runtime_error("commit marks out of timestamp order");
        }
        out.committed.push_back(std::move(it->second));
        out.last_commit_ts = r.ts;
        staged.erase(it);
        break;
      }
    }
  }
  out.unresolved.reserve(staged.size());
  for (auto& [ts, rec] : staged) out.unresolved.push_back(std::move(rec));
  return out;
}

void replay_and_apply(const LogMirror& records,
                      const std::function<void(const Command&, Timestamp)>& apply) {
  ReplayResult r = replay_log(records);
  for (const LogRecord& rec : r.committed) apply(rec.cmd, rec.ts);
}

}  // namespace crsm
