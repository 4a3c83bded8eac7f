// Log replay for crash recovery (Section V-B).
#pragma once

#include <vector>

#include "common/command.h"
#include "common/log_record.h"
#include "common/types.h"
#include "storage/log_mirror.h"

namespace crsm {

// Result of scanning a command log after a crash. The records' payloads
// view the scanned LogMirror's arena: a caller whose use of them can
// truncate the log (delivering them can take a checkpoint) holds a
// LogMirror::Hold across that use, and anything kept copies.
struct ReplayResult {
  // Commands with a COMMIT mark, in timestamp order — safe to execute.
  std::vector<LogRecord> committed;
  // Timestamp of the last commit mark (kZeroTimestamp if none).
  Timestamp last_commit_ts = kZeroTimestamp;
  // PREPARE entries near the tail with no matching COMMIT mark. The
  // recovering replica must consult its peers (catch-up, or a rejoin
  // through reconfiguration) before executing any of these.
  std::vector<LogRecord> unresolved;
};

// Scans `records` front to back with the paper's hash-table algorithm:
// PREPARE entries are staged by timestamp; each COMMIT mark promotes the
// matching PREPARE to `committed`. COMMIT marks appear in timestamp order,
// so `committed` comes out sorted.
[[nodiscard]] ReplayResult replay_log(const LogMirror& records);

}  // namespace crsm
