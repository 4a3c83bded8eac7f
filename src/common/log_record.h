// Records appended to the replicated command log (Section III-A / V-B).
#pragma once

#include <cstdint>

#include "common/command.h"
#include "common/types.h"

namespace crsm {

// Clock-RSM logs two kinds of entries: PREPARE entries carrying a command
// and its timestamp (not necessarily in timestamp order), and COMMIT marks
// carrying a timestamp only, always appended in timestamp order. The Paxos
// and Mencius implementations reuse PREPARE entries keyed by slot number
// (stored in Timestamp::ticks with origin = slot owner / leader).
enum class LogType : std::uint8_t {
  kPrepare = 1,
  kCommit = 2,
};

struct LogRecord {
  LogType type = LogType::kPrepare;
  Timestamp ts;
  Command cmd;  // empty for kCommit

  friend bool operator==(const LogRecord&, const LogRecord&) = default;

  [[nodiscard]] static LogRecord prepare(Timestamp ts, Command cmd) {
    return LogRecord{LogType::kPrepare, ts, std::move(cmd)};
  }
  // A PREPARE whose payload views `cmd`'s bytes, valid while `cmd` is: for
  // appending a command to a log, which copies the bytes, without a
  // second owned copy on the way.
  [[nodiscard]] static LogRecord prepare_view(Timestamp ts, const Command& cmd) {
    return LogRecord{LogType::kPrepare, ts,
                     Command{cmd.client, cmd.seq, Bytes::view(cmd.payload.view())}};
  }
  [[nodiscard]] static LogRecord commit(Timestamp ts) {
    return LogRecord{LogType::kCommit, ts, Command{}};
  }
};

}  // namespace crsm
