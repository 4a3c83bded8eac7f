// Wire messages for all replication protocols in this repository.
//
// A single tagged struct keeps the simulator, the TCP runtime and the
// tests protocol-agnostic: every protocol reactor consumes `Message`.
// Encoding is per-type and writes only the fields the type uses, so message
// sizes on the wire stay honest for the throughput experiments.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/command.h"
#include "common/log_record.h"
#include "common/types.h"

namespace crsm {

// The single authoritative list of wire message types: X(identifier, value,
// wire-name). The enum, the canonical kAllMsgTypes array (which the codec
// property tests and both wire fuzzers iterate) and msg_type_name are all
// generated from it, so adding a type here automatically puts it under
// round-trip, truncation and frame-stream fuzz coverage — forgetting is a
// compile error, not a review hazard (PR 3 and PR 4 each had to patch the
// fuzzers' hand-written lists).
//
// Groups (values leave gaps for future members):
//   1..4   Clock-RSM (Algorithm 1 + 2) + the batch envelope
//  10..13  Multi-Paxos / Paxos-bcast
//  20..21  Mencius-bcast
//  30..33  Reconfiguration (Algorithm 3)
//  34..35  Crash-restart catch-up (Section V-B, durable runtime)
//  40..44  Single-decree Paxos used by reconfiguration PROPOSE/DECIDE
//  50..53  Client <-> node wire protocol (crsm_node / crsm_client)
#define CRSM_MSG_TYPE_LIST(X)                                                  \
  X(kPrepare, 1, "PREPARE")         /* <PREPARE cmd, ts> */                    \
  X(kPrepareOk, 2, "PREPAREOK")     /* <PREPAREOK ts, clockTs> */              \
  X(kClockTime, 3, "CLOCKTIME")     /* <CLOCKTIME ts> */                       \
  X(kCmdBatch, 4, "CMDBATCH")       /* batch envelope: cmds replicated as 1 */ \
  X(kForward, 10, "FORWARD")        /* non-leader forwards a cmd to leader */  \
  X(kPhase2a, 11, "PHASE2A")        /* leader -> all: accept(slot, cmd) */     \
  X(kPhase2b, 12, "PHASE2B")        /* acceptor ack (to leader or bcast) */    \
  X(kCommitNotify, 13, "COMMIT")    /* leader -> all (classic mode only) */    \
  X(kMenPropose, 20, "M-PROPOSE")   /* owner -> all: propose(slot, cmd) */     \
  X(kMenAck, 21, "M-ACK")           /* bcast ack(slot) + sender skip bound */  \
  X(kSuspend, 30, "SUSPEND")        /* <SUSPEND e, cts> */                     \
  X(kSuspendOk, 31, "SUSPENDOK")    /* <SUSPENDOK e, cmds> */                  \
  X(kRetrieveCmds, 32, "RETRIEVECMDS")   /* <RETRIEVECMDS from, to> */         \
  X(kRetrieveReply, 33, "RETRIEVEREPLY") /* <RETRIEVEREPLY cmds> */            \
  X(kCatchupReq, 34, "CATCHUPREQ")  /* <CATCHUPREQ from-ts>, open-ended */     \
  X(kCatchupReply, 35, "CATCHUPREPLY") /* <commit-bound, prepares, ckpt?> */   \
  X(kConsPrepare, 40, "C-PREPARE")  /* phase 1a (ballot) */                    \
  X(kConsPromise, 41, "C-PROMISE")  /* phase 1b (ballot, accepted b, value) */ \
  X(kConsAccept, 42, "C-ACCEPT")    /* phase 2a (ballot, value) */             \
  X(kConsAccepted, 43, "C-ACCEPTED") /* phase 2b (ballot) */                   \
  X(kConsDecide, 44, "C-DECIDE")    /* learned decision (value) */             \
  X(kClientRequest, 50, "CLIENTREQ") /* client -> node: cmd to replicate */    \
  X(kClientReply, 51, "CLIENTREPLY") /* node -> client: echo + output blob */  \
  X(kClientRead, 52, "CLIENTREAD")   /* client -> node: local read cmd */      \
  X(kClientReadReply, 53, "CLIENTREADREPLY") /* node -> client: read output */ \
  X(kClientRedirect, 54, "CLIENTREDIRECT") /* node -> client: wrong group */

enum class MsgType : std::uint8_t {
#define CRSM_MSG_ENUM_MEMBER(id, value, name) id = value,
  CRSM_MSG_TYPE_LIST(CRSM_MSG_ENUM_MEMBER)
#undef CRSM_MSG_ENUM_MEMBER
};

// Every wire message type, in declaration order.
inline constexpr MsgType kAllMsgTypes[] = {
#define CRSM_MSG_ARRAY_MEMBER(id, value, name) MsgType::id,
    CRSM_MSG_TYPE_LIST(CRSM_MSG_ARRAY_MEMBER)
#undef CRSM_MSG_ARRAY_MEMBER
};
inline constexpr std::size_t kNumMsgTypes =
    sizeof(kAllMsgTypes) / sizeof(kAllMsgTypes[0]);

[[nodiscard]] const char* msg_type_name(MsgType t);

struct Message {
  MsgType type{};
  ReplicaId from = kNoReplica;
  Epoch epoch = 0;  // Clock-RSM epoch, or consensus instance id

  Timestamp ts;       // command timestamp (Clock-RSM); reconfig cts
  Tick clock_ts = 0;  // PREPAREOK/CLOCKTIME physical clock value
  Slot slot = 0;      // Paxos / Mencius slot; RETRIEVECMDS `from` bound
  std::uint64_t a = 0;  // generic: origin replica, skip bound, ballot, `to` bound
  std::uint64_t b = 0;  // generic: accepted ballot

  Command cmd;
  std::vector<Command> cmds;       // CMDBATCH envelope member commands
  std::vector<LogRecord> records;  // SUSPENDOK / RETRIEVEREPLY payloads
  Bytes blob;                      // consensus value (encoded ReconfigDecision)

  // Serialization. `encode` appends to `out`, framed with a length prefix so
  // streams of messages can be concatenated; the body is sized first, so
  // header and body are written once, straight into `out`. `decode_stream`
  // consumes one framed message and advances `pos`. The returned message
  // owns all its payload bytes.
  void encode(std::string* out) const;
  [[nodiscard]] std::string encode() const;
  // encode() in two parts around the records section, for a sender that
  // writes the records itself: encode_head writes the frame up to the
  // records, sized for `record_count` records of `record_bytes`
  // encode_log_record bytes in all; the sender appends exactly those
  // bytes; encode_tail writes the rest. A catch-up reply copies its
  // records straight from a log's WAL bytes, which hold the same encoding.
  void encode_head(std::string* out, std::size_t record_count,
                   std::size_t record_bytes) const;
  void encode_tail(std::string* out) const;
  [[nodiscard]] static Message decode(std::string_view framed);
  [[nodiscard]] static Message decode_stream(std::string_view buf, std::size_t* pos);

  // Zero-copy variant for the transport hot path: payload fields (`cmd`,
  // `records`, `blob`) decode into views borrowing `buf`, so no payload byte
  // is copied. The returned message must not outlive `buf`; anything a
  // handler stores becomes an owned copy via Bytes' copy-on-retain.
  [[nodiscard]] static Message decode_stream_view(std::string_view buf,
                                                  std::size_t* pos);
};

void encode_command(const Command& c, std::string* out);
[[nodiscard]] Command decode_command(class Decoder& d);
void encode_log_record(const LogRecord& r, std::string* out);
[[nodiscard]] LogRecord decode_log_record(class Decoder& d);
// Zero-copy variant: the payload views the decoder's input.
[[nodiscard]] LogRecord decode_log_record_view(class Decoder& d);
// Bytes encode_log_record() appends for `r`.
[[nodiscard]] std::size_t log_record_size(const LogRecord& r);
// Appends `r` framed with its varint length, as one WAL entry.
void encode_framed_log_record(const LogRecord& r, std::string* out);

}  // namespace crsm
