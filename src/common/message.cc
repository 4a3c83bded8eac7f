#include "common/message.h"

#include "common/codec.h"

namespace crsm {

const char* msg_type_name(MsgType t) {
  switch (t) {
#define CRSM_MSG_NAME_CASE(id, value, name) \
  case MsgType::id:                         \
    return name;
    CRSM_MSG_TYPE_LIST(CRSM_MSG_NAME_CASE)
#undef CRSM_MSG_NAME_CASE
  }
  return "UNKNOWN";
}

namespace {

// Shared field decoders. In view mode, byte fields borrow the decoder's
// input buffer (zero-copy); otherwise they own their bytes.
Bytes decode_payload(Decoder& d, bool view_mode) {
  Bytes b = Bytes::view(d.bytes_view());
  if (!view_mode) b.ensure_owned();  // one allocation, no std::string detour
  return b;
}

Command decode_command_impl(Decoder& d, bool view_mode) {
  Command c;
  c.client = d.var();
  c.seq = d.var();
  c.payload = decode_payload(d, view_mode);
  return c;
}

LogRecord decode_log_record_impl(Decoder& d, bool view_mode) {
  LogRecord r;
  r.type = static_cast<LogType>(d.u8());
  if (r.type != LogType::kPrepare && r.type != LogType::kCommit) {
    throw CodecError("bad log record type");
  }
  r.ts = d.timestamp();
  if (r.type == LogType::kPrepare) r.cmd = decode_command_impl(d, view_mode);
  return r;
}

std::size_t command_size(const Command& c) {
  return varint_size(c.client) + varint_size(c.seq) +
         varint_size(c.payload.size()) + c.payload.size();
}

}  // namespace

void encode_command(const Command& c, std::string* out) {
  Encoder e(out);
  e.var(c.client);
  e.var(c.seq);
  e.bytes(c.payload);
}

Command decode_command(Decoder& d) {
  return decode_command_impl(d, /*view_mode=*/false);
}

void encode_log_record(const LogRecord& r, std::string* out) {
  Encoder e(out);
  e.u8(static_cast<std::uint8_t>(r.type));
  e.timestamp(r.ts);
  if (r.type == LogType::kPrepare) encode_command(r.cmd, out);
}

LogRecord decode_log_record(Decoder& d) {
  return decode_log_record_impl(d, /*view_mode=*/false);
}

LogRecord decode_log_record_view(Decoder& d) {
  return decode_log_record_impl(d, /*view_mode=*/true);
}

std::size_t log_record_size(const LogRecord& r) {
  // type byte + timestamp (u64 ticks, u32 origin) + the PREPARE's command.
  return 1 + 12 + (r.type == LogType::kPrepare ? command_size(r.cmd) : 0);
}

void encode_framed_log_record(const LogRecord& r, std::string* out) {
  const std::size_t body = log_record_size(r);
  reserve_more(out, varint_size(body) + body);
  Encoder(out).var(body);
  encode_log_record(r, out);
}

namespace {

// Field presence per message type, so the wire representation stays compact.
struct Shape {
  bool ts = false;
  bool clock_ts = false;
  bool slot = false;
  bool a = false;
  bool b = false;
  bool cmd = false;
  bool cmds = false;
  bool records = false;
  bool blob = false;
};

Shape shape_of(MsgType t) {
  switch (t) {
    case MsgType::kPrepare: return {.ts = true, .cmd = true};
    case MsgType::kPrepareOk: return {.ts = true, .clock_ts = true};
    case MsgType::kClockTime: return {.clock_ts = true};
    case MsgType::kCmdBatch: return {.cmds = true};
    case MsgType::kForward: return {.a = true, .cmd = true};
    case MsgType::kPhase2a: return {.slot = true, .a = true, .cmd = true};
    case MsgType::kPhase2b: return {.slot = true};
    case MsgType::kCommitNotify: return {.slot = true};
    case MsgType::kMenPropose: return {.slot = true, .cmd = true};
    case MsgType::kMenAck: return {.slot = true, .a = true};
    case MsgType::kSuspend: return {.ts = true};
    case MsgType::kSuspendOk: return {.records = true};
    case MsgType::kCatchupReq: return {.ts = true};
    case MsgType::kCatchupReply:
      // ts = responder's last commit bound; a = 1 when blob carries the
      // responder's checkpoint (needed when its log was truncated past the
      // requested range); records = PREPARE entries above the request's ts.
      return {.ts = true, .a = true, .records = true, .blob = true};
    case MsgType::kConsPrepare: return {.a = true};
    case MsgType::kConsPromise: return {.a = true, .b = true, .blob = true};
    case MsgType::kConsAccept: return {.a = true, .blob = true};
    case MsgType::kConsAccepted: return {.a = true};
    case MsgType::kConsDecide: return {.blob = true};
    case MsgType::kClientRequest: return {.cmd = true};
    case MsgType::kClientReply: return {.cmd = true, .blob = true};
    case MsgType::kClientRead: return {.cmd = true};
    case MsgType::kClientReadReply: return {.cmd = true, .blob = true};
    case MsgType::kClientRedirect:
      // a = the group that owns the command's key. A multi-group node sends
      // this instead of applying a command the ShardRouter assigns elsewhere;
      // the echoed (client, seq) lets the client match it to its request.
      return {.a = true, .cmd = true};
  }
  return {};
}

Message decode_stream_impl(std::string_view buf, std::size_t* pos,
                           bool view_mode) {
  std::string_view rest = buf.substr(*pos);
  Decoder frame(rest);
  // The frame body is a view either way; only field payloads differ in
  // ownership. This removes the per-message body copy from every decode.
  std::string_view body = frame.bytes_view();
  *pos += rest.size() - frame.remaining();

  Decoder d(body);
  Message m;
  m.type = static_cast<MsgType>(d.u8());
  m.from = d.u32();
  m.epoch = d.var();
  const Shape s = shape_of(m.type);
  if (s.ts) m.ts = d.timestamp();
  if (s.clock_ts) m.clock_ts = d.u64();
  if (s.slot) m.slot = d.var();
  if (s.a) m.a = d.var();
  if (s.b) m.b = d.var();
  if (s.cmd) m.cmd = decode_command_impl(d, view_mode);
  if (s.cmds) {
    std::uint64_t n = d.var();
    // Every command costs >= 3 bytes on the wire (two varints + a length),
    // so a count above the remaining body is malformed; check before
    // reserve() so corrupt counts become CodecError, not giant allocations.
    if (n > d.remaining()) throw CodecError("implausible command count");
    m.cmds.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      m.cmds.push_back(decode_command_impl(d, view_mode));
    }
  }
  if (s.records) {
    std::uint64_t n = d.var();
    // Every record costs >= 13 bytes on the wire, so a count larger than the
    // remaining body is malformed; checking before reserve() keeps corrupt
    // counts from turning into huge allocations instead of CodecError.
    if (n > d.remaining()) throw CodecError("implausible record count");
    m.records.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      m.records.push_back(decode_log_record_impl(d, view_mode));
    }
  }
  if (s.blob) m.blob = decode_payload(d, view_mode);
  if (!d.done()) throw CodecError("trailing bytes in message body");
  return m;
}

}  // namespace

void Message::encode(std::string* out) const {
  const bool with_records = shape_of(type).records;
  std::size_t record_bytes = 0;
  if (with_records) {
    for (const LogRecord& r : records) record_bytes += log_record_size(r);
  }
  encode_head(out, records.size(), record_bytes);
  if (with_records) {
    for (const LogRecord& r : records) encode_log_record(r, out);
  }
  encode_tail(out);
}

void Message::encode_head(std::string* out, std::size_t record_count,
                          std::size_t record_bytes) const {
  const Shape s = shape_of(type);
  // Size the body, so the frame is written once, header first, into a
  // buffer that never grows midway (a catch-up reply can be megabytes).
  std::size_t body = 1 + 4 + varint_size(epoch);
  if (s.ts) body += 12;
  if (s.clock_ts) body += 8;
  if (s.slot) body += varint_size(slot);
  if (s.a) body += varint_size(a);
  if (s.b) body += varint_size(b);
  if (s.cmd) body += command_size(cmd);
  if (s.cmds) {
    body += varint_size(cmds.size());
    for (const Command& c : cmds) body += command_size(c);
  }
  if (s.records) body += varint_size(record_count) + record_bytes;
  if (s.blob) body += varint_size(blob.size()) + blob.size();

  reserve_more(out, varint_size(body) + body);
  Encoder e(out);
  e.var(body);
  e.u8(static_cast<std::uint8_t>(type));
  e.u32(from);
  e.var(epoch);
  if (s.ts) e.timestamp(ts);
  if (s.clock_ts) e.u64(clock_ts);
  if (s.slot) e.var(slot);
  if (s.a) e.var(a);
  if (s.b) e.var(b);
  if (s.cmd) encode_command(cmd, out);
  if (s.cmds) {
    e.var(cmds.size());
    for (const Command& c : cmds) encode_command(c, out);
  }
  if (s.records) e.var(record_count);
}

void Message::encode_tail(std::string* out) const {
  if (shape_of(type).blob) Encoder(out).bytes(blob);
}

std::string Message::encode() const {
  std::string out;
  encode(&out);
  return out;
}

Message Message::decode_stream(std::string_view buf, std::size_t* pos) {
  return decode_stream_impl(buf, pos, /*view_mode=*/false);
}

Message Message::decode_stream_view(std::string_view buf, std::size_t* pos) {
  return decode_stream_impl(buf, pos, /*view_mode=*/true);
}

Message Message::decode(std::string_view framed) {
  std::size_t pos = 0;
  Message m = decode_stream(framed, &pos);
  if (pos != framed.size()) throw CodecError("trailing bytes after message");
  return m;
}

}  // namespace crsm
