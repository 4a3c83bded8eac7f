// Unit tests for the binary codec and wire message serialization.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/codec.h"
#include "common/message.h"

namespace crsm {
namespace {

TEST(Codec, FixedWidthRoundTrip) {
  Encoder e;
  e.u8(0x7f);
  e.u32(0xdeadbeef);
  e.u64(0x0123456789abcdefULL);
  Decoder d(e.str());
  EXPECT_EQ(d.u8(), 0x7f);
  EXPECT_EQ(d.u32(), 0xdeadbeefu);
  EXPECT_EQ(d.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(d.done());
}

TEST(Codec, VarintRoundTripBoundaries) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ULL << 32) - 1,
                                  1ULL << 32,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : values) {
    Encoder e;
    e.var(v);
    Decoder d(e.str());
    EXPECT_EQ(d.var(), v) << v;
    EXPECT_TRUE(d.done());
  }
}

TEST(Codec, VarintSmallValuesAreOneByte) {
  for (std::uint64_t v = 0; v < 128; ++v) {
    Encoder e;
    e.var(v);
    EXPECT_EQ(e.str().size(), 1u);
  }
}

TEST(Codec, BytesRoundTrip) {
  Encoder e;
  e.bytes("");
  e.bytes("hello");
  std::string big(100000, 'x');
  e.bytes(big);
  Decoder d(e.str());
  EXPECT_EQ(d.bytes(), "");
  EXPECT_EQ(d.bytes(), "hello");
  EXPECT_EQ(d.bytes(), big);
  EXPECT_TRUE(d.done());
}

TEST(Codec, TimestampRoundTrip) {
  Encoder e;
  e.timestamp(Timestamp{123456789, 42});
  Decoder d(e.str());
  const Timestamp ts = d.timestamp();
  EXPECT_EQ(ts.ticks, 123456789u);
  EXPECT_EQ(ts.origin, 42u);
}

TEST(Codec, TruncatedInputThrows) {
  Encoder e;
  e.u64(7);
  for (std::size_t cut = 0; cut < 8; ++cut) {
    Decoder d(std::string_view(e.str()).substr(0, cut));
    EXPECT_THROW((void)d.u64(), CodecError) << cut;
  }
}

TEST(Codec, TruncatedBytesThrows) {
  Encoder e;
  e.bytes("hello world");
  Decoder d(std::string_view(e.str()).substr(0, 5));
  EXPECT_THROW((void)d.bytes(), CodecError);
}

TEST(Codec, VarintOverflowThrows) {
  std::string bad(11, static_cast<char>(0xff));
  Decoder d(bad);
  EXPECT_THROW((void)d.var(), CodecError);
}

Command make_cmd() {
  Command c;
  c.client = 0x1234;
  c.seq = 99;
  c.payload = "payload-bytes";
  return c;
}

TEST(Message, PrepareRoundTrip) {
  Message m;
  m.type = MsgType::kPrepare;
  m.from = 3;
  m.epoch = 7;
  m.ts = Timestamp{1000001, 3};
  m.cmd = make_cmd();
  const Message r = Message::decode(m.encode());
  EXPECT_EQ(r.type, MsgType::kPrepare);
  EXPECT_EQ(r.from, 3u);
  EXPECT_EQ(r.epoch, 7u);
  EXPECT_EQ(r.ts, (Timestamp{1000001, 3}));
  EXPECT_EQ(r.cmd, make_cmd());
}

TEST(Message, PrepareOkRoundTrip) {
  Message m;
  m.type = MsgType::kPrepareOk;
  m.from = 1;
  m.ts = Timestamp{55, 2};
  m.clock_ts = 60;
  const Message r = Message::decode(m.encode());
  EXPECT_EQ(r.ts, (Timestamp{55, 2}));
  EXPECT_EQ(r.clock_ts, 60u);
  EXPECT_TRUE(r.cmd.empty());
}

TEST(Message, AllTypesRoundTripWithoutError) {
  const MsgType types[] = {
      MsgType::kPrepare,      MsgType::kPrepareOk,    MsgType::kClockTime,
      MsgType::kForward,      MsgType::kPhase2a,      MsgType::kPhase2b,
      MsgType::kCommitNotify, MsgType::kMenPropose,   MsgType::kMenAck,
      MsgType::kSuspend,      MsgType::kSuspendOk,    MsgType::kCatchupReq,
      MsgType::kCatchupReply, MsgType::kConsPrepare,  MsgType::kConsPromise,
      MsgType::kConsAccept,   MsgType::kConsAccepted, MsgType::kConsDecide};
  for (MsgType t : types) {
    Message m;
    m.type = t;
    m.from = 2;
    m.epoch = 5;
    m.ts = Timestamp{17, 1};
    m.clock_ts = 18;
    m.slot = 9;
    m.a = 11;
    m.b = 13;
    m.cmd = make_cmd();
    m.records.push_back(LogRecord::prepare(Timestamp{3, 0}, make_cmd()));
    m.records.push_back(LogRecord::commit(Timestamp{3, 0}));
    m.blob = "blobby";
    const Message r = Message::decode(m.encode());
    EXPECT_EQ(r.type, t) << msg_type_name(t);
    EXPECT_EQ(r.from, 2u);
    EXPECT_EQ(r.epoch, 5u);
  }
}

TEST(Message, RecordsRoundTrip) {
  Message m;
  m.type = MsgType::kSuspendOk;
  m.from = 0;
  m.records.push_back(LogRecord::prepare(Timestamp{10, 1}, make_cmd()));
  m.records.push_back(LogRecord::commit(Timestamp{10, 1}));
  const Message r = Message::decode(m.encode());
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[0].type, LogType::kPrepare);
  EXPECT_EQ(r.records[0].cmd, make_cmd());
  EXPECT_EQ(r.records[1].type, LogType::kCommit);
  EXPECT_EQ(r.records[1].ts, (Timestamp{10, 1}));
}

TEST(Message, StreamDecodeMultiple) {
  Message a;
  a.type = MsgType::kClockTime;
  a.from = 0;
  a.clock_ts = 111;
  Message b;
  b.type = MsgType::kPhase2b;
  b.from = 1;
  b.slot = 22;

  std::string buf;
  a.encode(&buf);
  b.encode(&buf);

  std::size_t pos = 0;
  const Message ra = Message::decode_stream(buf, &pos);
  const Message rb = Message::decode_stream(buf, &pos);
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(ra.clock_ts, 111u);
  EXPECT_EQ(rb.slot, 22u);
}

TEST(Message, DecodeRejectsTrailingGarbage) {
  Message m;
  m.type = MsgType::kClockTime;
  m.clock_ts = 1;
  std::string buf = m.encode();
  buf += "garbage";
  EXPECT_THROW((void)Message::decode(buf), CodecError);
}

TEST(Message, CompactEncodingForSmallMessages) {
  Message m;
  m.type = MsgType::kPhase2b;
  m.from = 1;
  m.slot = 5;
  // type(1) + from(4) + epoch(1) + slot(1) + frame prefix(1) = 8 bytes.
  EXPECT_LE(m.encode().size(), 10u);
}

TEST(Timestamp, OrderingWithTieBreak) {
  EXPECT_LT((Timestamp{5, 0}), (Timestamp{6, 0}));
  EXPECT_LT((Timestamp{5, 0}), (Timestamp{5, 1}));
  EXPECT_EQ((Timestamp{5, 1}), (Timestamp{5, 1}));
  EXPECT_GT((Timestamp{6, 0}), (Timestamp{5, 9}));
}

TEST(Majority, Sizes) {
  EXPECT_EQ(majority(1), 1u);
  EXPECT_EQ(majority(2), 2u);
  EXPECT_EQ(majority(3), 2u);
  EXPECT_EQ(majority(4), 3u);
  EXPECT_EQ(majority(5), 3u);
  EXPECT_EQ(majority(7), 4u);
}

// --- single-buffer encoding ------------------------------------------------

// The fields each type puts on the wire (docs/WIRE_FORMAT.md), restated so
// the reference encoder below stands on its own.
struct RefShape {
  bool ts, clock_ts, slot, a, b, cmd, cmds, records, blob;
};

RefShape ref_shape(MsgType t) {
  switch (t) {
    case MsgType::kPrepare: return {1, 0, 0, 0, 0, 1, 0, 0, 0};
    case MsgType::kPrepareOk: return {1, 1, 0, 0, 0, 0, 0, 0, 0};
    case MsgType::kClockTime: return {0, 1, 0, 0, 0, 0, 0, 0, 0};
    case MsgType::kCmdBatch: return {0, 0, 0, 0, 0, 0, 1, 0, 0};
    case MsgType::kForward: return {0, 0, 0, 1, 0, 1, 0, 0, 0};
    case MsgType::kPhase2a: return {0, 0, 1, 1, 0, 1, 0, 0, 0};
    case MsgType::kPhase2b: return {0, 0, 1, 0, 0, 0, 0, 0, 0};
    case MsgType::kCommitNotify: return {0, 0, 1, 0, 0, 0, 0, 0, 0};
    case MsgType::kMenPropose: return {0, 0, 1, 0, 0, 1, 0, 0, 0};
    case MsgType::kMenAck: return {0, 0, 1, 1, 0, 0, 0, 0, 0};
    case MsgType::kSuspend: return {1, 0, 0, 0, 0, 0, 0, 0, 0};
    case MsgType::kSuspendOk: return {0, 0, 0, 0, 0, 0, 0, 1, 0};
    case MsgType::kCatchupReq: return {1, 0, 0, 0, 0, 0, 0, 0, 0};
    case MsgType::kCatchupReply: return {1, 0, 0, 1, 0, 0, 0, 1, 1};
    case MsgType::kConsPrepare: return {0, 0, 0, 1, 0, 0, 0, 0, 0};
    case MsgType::kConsPromise: return {0, 0, 0, 1, 1, 0, 0, 0, 1};
    case MsgType::kConsAccept: return {0, 0, 0, 1, 0, 0, 0, 0, 1};
    case MsgType::kConsAccepted: return {0, 0, 0, 1, 0, 0, 0, 0, 0};
    case MsgType::kConsDecide: return {0, 0, 0, 0, 0, 0, 0, 0, 1};
    case MsgType::kClientRequest: return {0, 0, 0, 0, 0, 1, 0, 0, 0};
    case MsgType::kClientReply: return {0, 0, 0, 0, 0, 1, 0, 0, 1};
    case MsgType::kClientRead: return {0, 0, 0, 0, 0, 1, 0, 0, 0};
    case MsgType::kClientReadReply: return {0, 0, 0, 0, 0, 1, 0, 0, 1};
    case MsgType::kClientRedirect: return {0, 0, 0, 1, 0, 1, 0, 0, 0};
  }
  ADD_FAILURE() << "no reference shape for " << msg_type_name(t);
  return {};
}

// The two-buffer encoding: the body built in a string of its own, then
// copied behind its length.
std::string two_buffer_encode(const Message& m) {
  const RefShape s = ref_shape(m.type);
  std::string body;
  Encoder e(&body);
  e.u8(static_cast<std::uint8_t>(m.type));
  e.u32(m.from);
  e.var(m.epoch);
  if (s.ts) e.timestamp(m.ts);
  if (s.clock_ts) e.u64(m.clock_ts);
  if (s.slot) e.var(m.slot);
  if (s.a) e.var(m.a);
  if (s.b) e.var(m.b);
  if (s.cmd) encode_command(m.cmd, &body);
  if (s.cmds) {
    e.var(m.cmds.size());
    for (const Command& c : m.cmds) encode_command(c, &body);
  }
  if (s.records) {
    e.var(m.records.size());
    for (const LogRecord& r : m.records) encode_log_record(r, &body);
  }
  if (s.blob) e.bytes(m.blob);
  std::string framed;
  Encoder(&framed).bytes(body);
  return framed;
}

Message full_message(MsgType t) {
  Message m;
  m.type = t;
  m.from = 4;
  m.epoch = 300;  // a two-byte varint
  m.ts = Timestamp{1'000'000'007, 2};
  m.clock_ts = 1'000'000'123;
  m.slot = 70'000;
  m.a = 129;
  m.b = 5;
  m.cmd = make_cmd();
  m.cmds = {make_cmd(), make_cmd()};
  m.records = {LogRecord::prepare(Timestamp{3, 0}, make_cmd()),
               LogRecord::commit(Timestamp{3, 0})};
  m.blob = "blobby";
  return m;
}

// The payload that sizes a message of type `t`, or nullptr for a
// fixed-size type.
Bytes* sizing_payload(Message& m) {
  const RefShape s = ref_shape(m.type);
  if (s.blob) return &m.blob;
  if (s.cmd) return &m.cmd.payload;
  if (s.cmds) return &m.cmds[0].payload;
  if (s.records) return &m.records[0].cmd.payload;
  return nullptr;
}

TEST(Message, SingleBufferEncodingMatchesTwoBufferBytesForEveryType) {
  // Bodies of 127/128 and 16383/16384 bytes are where the length header
  // grows from one to two and from two to three bytes.
  const std::size_t targets[] = {127, 128, 16383, 16384};
  for (MsgType t : kAllMsgTypes) {
    Message base = full_message(t);
    EXPECT_EQ(base.encode(), two_buffer_encode(base)) << msg_type_name(t);
    if (sizing_payload(base) == nullptr) continue;
    for (std::size_t target : targets) {
      Message m = full_message(t);
      bool sized = false;
      for (std::size_t len = 0; len <= target && !sized; ++len) {
        *sizing_payload(m) = std::string(len, 'z');
        const std::string ref = two_buffer_encode(m);
        sized = ref.size() - varint_size(target) == target &&
                Decoder(ref).var() == target;
      }
      ASSERT_TRUE(sized) << msg_type_name(t) << " body " << target;
      const std::string ref = two_buffer_encode(m);
      EXPECT_EQ(m.encode(), ref) << msg_type_name(t) << " body " << target;
      // Appending behind bytes already in the buffer writes the same frame.
      std::string buf = "prefix";
      m.encode(&buf);
      EXPECT_EQ(buf, "prefix" + ref) << msg_type_name(t) << " body " << target;
    }
  }
}

TEST(Message, RecordsWrittenFromTheirBytesEncodeLikeRecords) {
  // A catch-up reply with a checkpoint, its records given as their
  // encode_log_record bytes (what a log's WAL bytes hold), encodes to the
  // bytes encode() writes for the decoded records.
  Message m;
  m.type = MsgType::kCatchupReply;
  m.from = 2;
  m.epoch = 3;
  m.ts = Timestamp{500, 1};
  m.a = 1;
  m.blob = std::string(300, 'c');
  for (std::uint64_t i = 0; i < 40; ++i) {
    Command c = make_cmd();
    c.seq = i;
    c.payload = std::string(i * 7, static_cast<char>('a' + i % 26));
    m.records.push_back(LogRecord::prepare(Timestamp{100 + i, 0}, c));
  }
  std::string bytes;
  for (const LogRecord& r : m.records) encode_log_record(r, &bytes);
  Message bare = m;
  bare.records.clear();
  std::string out = "prefix";
  bare.encode_head(&out, m.records.size(), bytes.size());
  out += bytes;
  bare.encode_tail(&out);
  EXPECT_EQ(out, "prefix" + m.encode());
  EXPECT_EQ(Message::decode(std::string_view(out).substr(6)).records, m.records);
}

TEST(Message, FramedLogRecordMatchesTwoBufferBytes) {
  // A PREPARE record's body is 16 bytes plus the payload and its length:
  // these payloads make bodies of 127, 128, 16383 and 16384 bytes.
  for (std::size_t len : {0u, 110u, 111u, 16365u, 16366u}) {
    Command c = make_cmd();
    c.payload = std::string(len, 'w');
    for (const LogRecord& r : {LogRecord::prepare(Timestamp{9, 1}, c),
                               LogRecord::commit(Timestamp{9, 1})}) {
      std::string body;
      encode_log_record(r, &body);
      std::string ref;
      Encoder(&ref).bytes(body);
      EXPECT_EQ(log_record_size(r), body.size());
      std::string framed;
      encode_framed_log_record(r, &framed);
      EXPECT_EQ(framed, ref) << "payload " << len;
    }
  }
}

}  // namespace
}  // namespace crsm
