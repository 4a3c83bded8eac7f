// Fuzz tests for the framed wire stream: concatenated, truncated and
// bit-flipped frame sequences for every message type, plus socket-style
// adversarial chunking (1-byte reads, headers torn across reads, coalesced
// frames) through the FrameConn reassembly path (FrameAssembler). The
// decoder must either round-trip faithfully or throw CodecError — never
// read out of bounds (the CI sanitizer job backs that claim) and never
// surface any other failure mode. Both the owning decoder (decode_stream)
// and the zero-copy transport decoder (decode_stream_view) are exercised.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/batch.h"
#include "common/codec.h"
#include "common/message.h"
#include "common/wire_frame.h"
#include "net/frame_conn.h"
#include "util/rng.h"

namespace crsm {
namespace {

// The canonical list from message.h: generated from the same X-macro as the
// MsgType enum itself, so a new message type is fuzzed here automatically.
using crsm::kAllMsgTypes;

std::string random_bytes(Rng& rng, std::size_t max_len) {
  std::string s(rng.uniform_int(0, max_len), '\0');
  for (char& c : s) c = static_cast<char>(rng.uniform_int(0, 255));
  return s;
}

Message random_message(Rng& rng, MsgType type) {
  Message m;
  m.type = type;
  m.from = static_cast<ReplicaId>(rng.uniform_int(0, 100));
  m.epoch = rng.uniform_int(0, 1'000'000);
  m.ts = Timestamp{rng.uniform_int(0, ~0ULL >> 1),
                   static_cast<ReplicaId>(rng.uniform_int(0, 100))};
  m.clock_ts = rng.uniform_int(0, ~0ULL >> 1);
  m.slot = rng.uniform_int(0, 1'000'000'000);
  m.a = rng.uniform_int(0, ~0ULL >> 1);
  m.b = rng.uniform_int(0, ~0ULL >> 1);
  m.cmd.client = rng.uniform_int(0, ~0ULL >> 1);
  m.cmd.seq = rng.uniform_int(0, ~0ULL >> 1);
  m.cmd.payload = random_bytes(rng, 120);
  const std::size_t nrec = rng.uniform_int(0, 3);
  for (std::size_t i = 0; i < nrec; ++i) {
    Command c;
    c.client = rng.uniform_int(1, 100);
    c.seq = rng.uniform_int(1, 100);
    c.payload = random_bytes(rng, 40);
    const Timestamp ts{rng.uniform_int(0, 1'000'000),
                       static_cast<ReplicaId>(rng.uniform_int(0, 10))};
    if (rng.bernoulli(0.7)) {
      m.records.push_back(LogRecord::prepare(ts, std::move(c)));
    } else {
      m.records.push_back(LogRecord::commit(ts));
    }
  }
  const std::size_t ncmds = rng.uniform_int(0, 4);
  for (std::size_t i = 0; i < ncmds; ++i) {
    Command c;
    c.client = rng.uniform_int(1, 100);
    c.seq = rng.uniform_int(1, 100);
    c.payload = random_bytes(rng, 60);
    m.cmds.push_back(std::move(c));
  }
  m.blob = random_bytes(rng, 150);
  return m;
}

// Decodes as many messages as the stream yields with the chosen decoder.
// Throws CodecError on malformed input; anything else is a test failure.
std::vector<Message> drain(std::string_view stream, bool view_mode) {
  std::vector<Message> out;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    Message m = view_mode ? Message::decode_stream_view(stream, &pos)
                          : Message::decode_stream(stream, &pos);
    if (view_mode) {
      // Retain semantics: storing a copy owns the bytes (what protocols do).
      out.push_back(m);
    } else {
      out.push_back(std::move(m));
    }
  }
  return out;
}

class FrameStreamFuzz : public ::testing::TestWithParam<MsgType> {};

TEST_P(FrameStreamFuzz, ConcatenatedStreamsRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 17);
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t k = rng.uniform_int(1, 6);
    std::vector<Message> originals;
    std::string stream;
    for (std::size_t i = 0; i < k; ++i) {
      originals.push_back(random_message(rng, GetParam()));
      originals.back().encode(&stream);
    }
    for (bool view_mode : {false, true}) {
      const std::vector<Message> decoded = drain(stream, view_mode);
      ASSERT_EQ(decoded.size(), originals.size());
      std::string reencoded;
      for (const Message& m : decoded) m.encode(&reencoded);
      // Byte-level fixed point: re-encoding reproduces the exact stream.
      EXPECT_EQ(reencoded, stream) << "view_mode=" << view_mode;
    }
  }
}

TEST_P(FrameStreamFuzz, TruncationAtEveryOffsetThrowsOrYieldsPrefix) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 193 + 5);
  std::vector<std::string> frames;
  std::string stream;
  for (int i = 0; i < 3; ++i) {
    const Message m = random_message(rng, GetParam());
    frames.push_back(m.encode());
    stream += frames.back();
  }
  // Frame boundaries, where a cut is a clean prefix rather than an error.
  std::vector<std::size_t> boundaries = {0};
  for (const std::string& f : frames) boundaries.push_back(boundaries.back() + f.size());

  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    for (bool view_mode : {false, true}) {
      const std::string_view prefix = std::string_view(stream).substr(0, cut);
      std::size_t whole = 0;  // frames fully contained in the prefix
      while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= cut) ++whole;
      if (cut == boundaries[whole]) {
        // Clean boundary: the prefix is a valid shorter stream.
        EXPECT_EQ(drain(prefix, view_mode).size(), whole);
      } else {
        // Mid-frame cut: decoding the complete frames succeeds, then the
        // torn tail must throw CodecError (not crash, not read OOB).
        std::size_t pos = 0;
        for (std::size_t i = 0; i < whole; ++i) {
          (void)(view_mode ? Message::decode_stream_view(prefix, &pos)
                           : Message::decode_stream(prefix, &pos));
        }
        EXPECT_THROW((void)(view_mode ? Message::decode_stream_view(prefix, &pos)
                                      : Message::decode_stream(prefix, &pos)),
                     CodecError)
            << "cut at " << cut << " view_mode=" << view_mode;
      }
    }
  }
}

TEST_P(FrameStreamFuzz, BitFlipsEitherDecodeOrThrowCodecError) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 71 + 29);
  for (int iter = 0; iter < 200; ++iter) {
    std::string stream;
    const std::size_t k = rng.uniform_int(1, 3);
    for (std::size_t i = 0; i < k; ++i) {
      random_message(rng, GetParam()).encode(&stream);
    }
    const std::size_t byte = rng.uniform_int(0, stream.size() - 1);
    const int bit = static_cast<int>(rng.uniform_int(0, 7));
    stream[byte] = static_cast<char>(static_cast<unsigned char>(stream[byte]) ^
                                     (1u << bit));
    for (bool view_mode : {false, true}) {
      try {
        const std::vector<Message> decoded = drain(stream, view_mode);
        // Corruption may still parse (e.g. a flipped payload byte): the
        // result must at least re-encode without crashing.
        std::string reencoded;
        for (const Message& m : decoded) m.encode(&reencoded);
      } catch (const CodecError&) {
        // The only acceptable failure mode.
      }
    }
  }
}

// --- Socket-style reassembly (FrameConn's FrameAssembler) ------------------

// Feeds `stream` into a FrameAssembler in the given chunk sizes, decoding
// (and retaining, view-mode copy-on-retain) every frame as soon as it
// completes — exactly what FrameConn does per read() burst.
std::vector<Message> drain_chunked(std::string_view stream,
                                   const std::vector<std::size_t>& chunks) {
  net::FrameAssembler assembler;
  std::vector<Message> out;
  std::size_t fed = 0;
  for (std::size_t chunk : chunks) {
    assembler.append(stream.substr(fed, chunk));
    fed += std::min(chunk, stream.size() - fed);
    const std::string_view ready = assembler.complete_prefix();
    std::size_t pos = 0;
    while (pos < ready.size()) {
      const Message m = Message::decode_stream_view(ready, &pos);
      out.push_back(m);  // copy, not move: copy-on-retain owns the payloads
    }
    assembler.consume(pos);
  }
  EXPECT_EQ(fed, stream.size()) << "test bug: chunks must cover the stream";
  EXPECT_EQ(assembler.buffered(), 0u) << "partial frame left after full feed";
  return out;
}

void expect_round_trip(const std::vector<Message>& decoded,
                       std::string_view stream, const char* mode) {
  std::string reencoded;
  for (const Message& m : decoded) m.encode(&reencoded);
  EXPECT_EQ(reencoded, stream) << "chunking mode: " << mode;
}

TEST_P(FrameStreamFuzz, AdversarialChunkingReassembles) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 257 + 11);
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t k = rng.uniform_int(1, 5);
    std::string stream;
    for (std::size_t i = 0; i < k; ++i) {
      random_message(rng, GetParam()).encode(&stream);
    }

    // 1-byte reads: every frame header is torn byte by byte.
    expect_round_trip(
        drain_chunked(stream, std::vector<std::size_t>(stream.size(), 1)),
        stream, "one-byte");

    // Everything coalesced into a single read.
    expect_round_trip(drain_chunked(stream, {stream.size()}), stream,
                      "coalesced");

    // Header split from body: 1 byte (half the varint header when the frame
    // is >127 bytes, the whole header otherwise), then the rest.
    if (stream.size() > 1) {
      expect_round_trip(drain_chunked(stream, {1, stream.size() - 1}), stream,
                        "header-split");
    }

    // Random chunk sizes, biased small so header tears are common.
    std::vector<std::size_t> chunks;
    std::size_t covered = 0;
    while (covered < stream.size()) {
      const std::size_t c = rng.uniform_int(1, 7);
      chunks.push_back(c);
      covered += c;
    }
    expect_round_trip(drain_chunked(stream, chunks), stream, "random");
  }
}

// --- Coalesced multi-frame streams -----------------------------------------
//
// A coalescing transport flushes every frame queued to one peer during an
// event-loop pass as a single writev, so the receiver sees
// long mixed-type bursts arrive in one read — or, under a torn writev plus
// small socket buffers, sliced at arbitrary offsets that respect nothing
// about frame boundaries. These tests build such a burst (many frames,
// every message type interleaved, exactly the bytes one coalesced flush
// would emit) and replay it through the FrameAssembler under the nastiest
// chunkings.

struct CoalescedBurst {
  std::string stream;                   // the coalesced writev payload
  std::vector<std::size_t> boundaries;  // start offset of every frame
};

CoalescedBurst make_coalesced_burst(Rng& rng, std::size_t frames) {
  CoalescedBurst b;
  for (std::size_t i = 0; i < frames; ++i) {
    b.boundaries.push_back(b.stream.size());
    // Cycle through every message type: a real pass coalesces whatever the
    // protocol queued — PREPAREs, ACKs, client replies — into one flush.
    const MsgType type = kAllMsgTypes[i % kNumMsgTypes];
    random_message(rng, type).encode(&b.stream);
  }
  return b;
}

TEST(CoalescedStreamFuzz, MixedTypeBurstSurvivesOneByteReads) {
  Rng rng(0xC0A1E5CE);
  const CoalescedBurst b = make_coalesced_burst(rng, 48);
  expect_round_trip(
      drain_chunked(b.stream, std::vector<std::size_t>(b.stream.size(), 1)),
      b.stream, "coalesced one-byte");
}

TEST(CoalescedStreamFuzz, TornHeaderAtEveryFrameBoundary) {
  Rng rng(0xBADC0DE);
  const CoalescedBurst b = make_coalesced_burst(rng, 32);
  // Chunk boundaries land one byte past every frame start, so every frame's
  // varint length header is torn across two reads — the worst case a torn
  // writev of a coalesced burst can produce.
  std::vector<std::size_t> chunks;
  std::size_t prev = 0;
  for (std::size_t i = 1; i < b.boundaries.size(); ++i) {
    const std::size_t cut = b.boundaries[i] + 1;  // 1 byte into the header
    chunks.push_back(cut - prev);
    prev = cut;
  }
  chunks.push_back(b.stream.size() - prev);
  expect_round_trip(drain_chunked(b.stream, chunks), b.stream,
                    "torn-header-every-frame");
}

TEST(CoalescedStreamFuzz, RandomSlicesOfLargeBurstsReassemble) {
  Rng rng(0x5EED5);
  for (int iter = 0; iter < 8; ++iter) {
    const CoalescedBurst b =
        make_coalesced_burst(rng, rng.uniform_int(16, 64));
    // Whole burst in one read — the common case when the receiver's read
    // buffer covers the flush.
    expect_round_trip(drain_chunked(b.stream, {b.stream.size()}), b.stream,
                      "coalesced single-read");
    // Random slicing with sizes spanning sub-header to multi-frame, so a
    // single chunk can end mid-header, mid-body, or swallow several frames.
    std::vector<std::size_t> chunks;
    std::size_t covered = 0;
    while (covered < b.stream.size()) {
      const std::size_t c = rng.bernoulli(0.5)
                                ? rng.uniform_int(1, 3)
                                : rng.uniform_int(50, 400);
      chunks.push_back(c);
      covered += c;
    }
    expect_round_trip(drain_chunked(b.stream, chunks), b.stream,
                      "coalesced random-slices");
  }
}

TEST(FrameAssemblerFuzz, PartialTailSurvivesUntilCompleted) {
  Rng rng(99);
  Message m = random_message(rng, MsgType::kSuspendOk);
  const std::string frame = m.encode();
  ASSERT_GT(frame.size(), 4u);

  net::FrameAssembler assembler;
  // Feed all but the last byte: nothing must complete.
  assembler.append(std::string_view(frame).substr(0, frame.size() - 1));
  EXPECT_TRUE(assembler.complete_prefix().empty());
  EXPECT_EQ(assembler.buffered(), frame.size() - 1);
  // The final byte completes exactly one frame.
  assembler.append(std::string_view(frame).substr(frame.size() - 1));
  const std::string_view ready = assembler.complete_prefix();
  EXPECT_EQ(ready.size(), frame.size());
  std::size_t pos = 0;
  const Message decoded = Message::decode_stream_view(ready, &pos);
  std::string reencoded;
  decoded.encode(&reencoded);
  EXPECT_EQ(reencoded, frame);
}

// --- Batched PREPARE frames ------------------------------------------------
//
// With command batching on, a PREPARE's command is a batch envelope: its
// payload is itself an encoded kCmdBatch frame (common/batch.h). The outer
// codec treats that payload as opaque bytes, so the nested frame is only
// decoded at execution time by split_batch(). Two corruption surfaces: the
// socket can tear or flip the outer PREPARE, and a torn WAL tail or disk
// corruption can feed split_batch a damaged envelope. Both must fail stop
// with CodecError — never read out of bounds, never yield a partial batch.

Command random_batch_envelope(Rng& rng, std::size_t n, std::size_t max_payload) {
  std::vector<Command> members;
  for (std::size_t i = 0; i < n; ++i) {
    Command c;
    c.client = rng.uniform_int(1, 100);
    c.seq = rng.uniform_int(1, 1'000'000);
    c.payload = random_bytes(rng, max_payload);
    members.push_back(std::move(c));
  }
  return make_batch(members, static_cast<ReplicaId>(rng.uniform_int(0, 10)),
                    rng.uniform_int(0, 1'000'000));
}

Message batched_prepare(Rng& rng, const Command& envelope) {
  Message m;
  m.type = MsgType::kPrepare;
  m.from = static_cast<ReplicaId>(rng.uniform_int(0, 10));
  m.epoch = rng.uniform_int(0, 100);
  m.ts = Timestamp{rng.uniform_int(1, 1'000'000),
                   static_cast<ReplicaId>(rng.uniform_int(0, 10))};
  m.cmd = envelope;
  return m;
}

// Offset of the member-count varint inside an encoded envelope payload.
// Envelope layout (Message::encode): varint frame length, then the body —
// u8 type, u32 from, varint epoch, varint count, members. make_batch always
// writes epoch 0 and a count < 128, so the count is one byte; the assertion
// in the caller pins that assumption against future layout drift.
std::size_t batch_count_offset(std::string_view payload) {
  std::size_t i = 0;
  while ((static_cast<unsigned char>(payload[i]) & 0x80) != 0) ++i;  // frame len
  ++i;
  i += 1 + 4;  // u8 type + u32 from
  while ((static_cast<unsigned char>(payload[i]) & 0x80) != 0) ++i;  // epoch
  ++i;
  return i;
}

TEST(BatchedPrepareFuzz, EnvelopeSurvivesOuterRoundTrip) {
  Rng rng(0xBA7C4ED);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t n = rng.uniform_int(1, 16);
    std::vector<Command> members;
    for (std::size_t i = 0; i < n; ++i) {
      Command c;
      c.client = rng.uniform_int(1, 100);
      c.seq = rng.uniform_int(1, 1'000'000);
      c.payload = random_bytes(rng, 80);
      members.push_back(std::move(c));
    }
    const Command env = make_batch(members, 3, iter);
    const std::string stream = batched_prepare(rng, env).encode();
    for (bool view_mode : {false, true}) {
      const std::vector<Message> decoded = drain(stream, view_mode);
      ASSERT_EQ(decoded.size(), 1u);
      // The envelope that comes off the wire splits back into exactly the
      // member commands that went in, in order.
      EXPECT_EQ(split_batch(decoded[0].cmd), members);
    }
  }
}

TEST(BatchedPrepareFuzz, TruncationMidEnvelopeThrows) {
  Rng rng(0x7EA4);
  const Command env = random_batch_envelope(rng, 8, 60);
  const std::string stream = batched_prepare(rng, env).encode();
  // Any mid-frame cut — including every offset inside the nested envelope
  // bytes — must throw CodecError from the outer decoder.
  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    for (bool view_mode : {false, true}) {
      std::size_t pos = 0;
      EXPECT_THROW(
          (void)(view_mode
                     ? Message::decode_stream_view(
                           std::string_view(stream).substr(0, cut), &pos)
                     : Message::decode_stream(
                           std::string_view(stream).substr(0, cut), &pos)),
          CodecError)
          << "cut at " << cut;
    }
  }
}

TEST(BatchedPrepareFuzz, TruncatedEnvelopePayloadFailsStopInSplit) {
  // A torn WAL tail can persist a prefix of an envelope payload. Replay
  // hands that prefix to split_batch, which must throw — a partial batch
  // must never execute.
  Rng rng(0x70A2);
  const Command env = random_batch_envelope(rng, 8, 60);
  const std::string_view full = env.payload.view();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Command torn = env;
    torn.payload = std::string(full.substr(0, cut));
    EXPECT_THROW((void)split_batch(torn), CodecError) << "cut at " << cut;
  }
}

TEST(BatchedPrepareFuzz, BitFlippedCommandCountFailsStopOrParses) {
  Rng rng(0xB17F11);
  const Command env = random_batch_envelope(rng, 8, 40);
  const std::string_view payload = env.payload.view();
  const std::size_t off = batch_count_offset(payload);
  ASSERT_EQ(static_cast<unsigned char>(payload[off]), 8u)
      << "count varint not where the layout comment says";
  for (int bit = 0; bit < 8; ++bit) {
    Command corrupt = env;
    std::string raw(payload);
    raw[off] = static_cast<char>(static_cast<unsigned char>(raw[off]) ^
                                 (1u << bit));
    corrupt.payload = std::move(raw);
    try {
      // A flipped count either still parses (count landed on a value the
      // remaining bytes happen to satisfy — then the trailing-byte check or
      // member decode catches the mismatch) or throws. Never OOB; the CI
      // sanitizer job backs that claim.
      (void)split_batch(corrupt);
    } catch (const CodecError&) {
      // The only acceptable failure mode.
    }
  }
}

TEST(BatchedPrepareFuzz, ImplausibleCommandCountThrowsBeforeAllocating) {
  // Two near-empty members, count byte rewritten to 127: far more commands
  // than the remaining bytes could hold. The decoder's plausibility guard
  // must reject it up front instead of reserving storage for a length the
  // attacker chose.
  Rng rng(0x1337);
  const Command env = random_batch_envelope(rng, 2, 0);
  const std::size_t off = batch_count_offset(env.payload.view());
  Command corrupt = env;
  std::string raw(env.payload.view());
  ASSERT_EQ(static_cast<unsigned char>(raw[off]), 2u);
  raw[off] = 0x7f;
  corrupt.payload = std::move(raw);
  EXPECT_THROW((void)split_batch(corrupt), CodecError);
}

TEST(BatchedPrepareFuzz, ZeroCommandCountFailsStop) {
  Rng rng(0x0);
  const Command env = random_batch_envelope(rng, 2, 20);
  const std::size_t off = batch_count_offset(env.payload.view());
  Command corrupt = env;
  std::string raw(env.payload.view());
  raw[off] = 0;
  corrupt.payload = std::move(raw);
  // An envelope with zero members is never produced (singletons ship bare);
  // decoding one is corruption, not a degenerate batch.
  EXPECT_THROW((void)split_batch(corrupt), CodecError);
}

TEST(BatchedPrepareFuzz, OneByteReadsAcrossBatchBoundaries) {
  // A coalesced flush of batched PREPAREs interleaved with acks, sliced one
  // byte per read: every envelope boundary and every member boundary inside
  // each envelope is torn across reads. Reassembly must reproduce each
  // envelope byte-for-byte, and each reassembled envelope must split into
  // its original members.
  Rng rng(0x1B17E);
  std::string stream;
  std::vector<std::vector<Command>> expected_members;
  for (int i = 0; i < 24; ++i) {
    if (i % 3 == 2) {
      // Interleave non-batched traffic, as a real pass would.
      random_message(rng, MsgType::kPrepareOk).encode(&stream);
      continue;
    }
    const std::size_t n = rng.uniform_int(1, 16);
    std::vector<Command> members;
    for (std::size_t j = 0; j < n; ++j) {
      Command c;
      c.client = rng.uniform_int(1, 100);
      c.seq = rng.uniform_int(1, 1'000'000);
      c.payload = random_bytes(rng, 64);
      members.push_back(std::move(c));
    }
    const Command env = make_batch(members, static_cast<ReplicaId>(i % 5),
                                   static_cast<std::uint64_t>(i));
    batched_prepare(rng, env).encode(&stream);
    expected_members.push_back(std::move(members));
  }

  const std::vector<Message> decoded =
      drain_chunked(stream, std::vector<std::size_t>(stream.size(), 1));
  expect_round_trip(decoded, stream, "batched one-byte");
  std::size_t batch_idx = 0;
  for (const Message& m : decoded) {
    if (m.type != MsgType::kPrepare) continue;
    ASSERT_TRUE(is_batch(m.cmd));
    ASSERT_LT(batch_idx, expected_members.size());
    EXPECT_EQ(split_batch(m.cmd), expected_members[batch_idx]);
    ++batch_idx;
  }
  EXPECT_EQ(batch_idx, expected_members.size());
}

INSTANTIATE_TEST_SUITE_P(AllTypes, FrameStreamFuzz,
                         ::testing::ValuesIn(kAllMsgTypes),
                         [](const auto& info) {
                           std::string s = msg_type_name(info.param);
                           for (char& c : s) {
                             if (c == '-') c = '_';
                           }
                           return s;
                         });

}  // namespace
}  // namespace crsm
