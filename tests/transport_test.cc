// Tests for the shared wire pipeline: lazy encode-once WireFrames and the
// acceptance counters from the wire-pipeline refactor on SimTransport (a
// broadcast message is serialized exactly once regardless of fan-out, with
// bytes-on-the-wire unchanged). tcp_cluster_test's
// TcpBackendTest.EncodeOnceAndCoalescingCountersHold checks the same
// counters over real sockets.
#include <gtest/gtest.h>

#include <string>

#include "common/wire_frame.h"
#include "test_util.h"

namespace crsm {
namespace {

using test::ec2_five;
using test::kv_factory;
using test::kv_put;
using test::world_opts;

// --- WireFrame ------------------------------------------------------------

TEST(WireFrame, EncodesLazilyAndOnce) {
  Message m;
  m.type = MsgType::kClockTime;
  m.from = 1;
  m.clock_ts = 42;

  WireFrame f(m);
  EXPECT_FALSE(f.encoded_yet());
  const std::string_view first = f.bytes();
  EXPECT_TRUE(f.encoded_yet());
  const std::string_view second = f.bytes();
  // Same cached buffer, not a re-encode.
  EXPECT_EQ(first.data(), second.data());
  EXPECT_EQ(std::string(first), m.encode());
}

TEST(WireFrame, FrameWriterStampsSender) {
  Message m;
  m.type = MsgType::kPhase2b;
  m.slot = 7;
  const WireFrame f = FrameWriter(3).frame(m);
  EXPECT_EQ(f.msg().from, 3u);
  // The wire bytes carry the stamped sender.
  EXPECT_EQ(Message::decode(f.bytes()).from, 3u);
}

// --- SimTransport ---------------------------------------------------------

TEST(SimTransportEncodeOnce, FiveReplicaClockRsmEncodesOncePerBroadcast) {
  // One command: 1 PREPARE broadcast + 5 PREPAREOK broadcasts = 6 frames,
  // 30 link messages. encode_calls must count frames, not link messages,
  // while messages_sent/bytes_sent keep per-link accounting.
  SimWorldOptions opt = world_opts(ec2_five());
  opt.count_bytes = true;
  SimWorld w(opt, clock_rsm_factory(5, /*clocktime_enabled=*/false), kv_factory());
  w.start();
  w.submit(0, kv_put(1, 1, "k", "v"));
  w.sim().run_until(ms_to_us(500.0));

  EXPECT_EQ(w.network().messages_sent(), 5u + 25u);
  EXPECT_EQ(w.network().encode_calls(), 1u + 5u);
  EXPECT_GT(w.network().bytes_sent(), 0u);

  const TransportStats s = w.network().stats();
  EXPECT_EQ(s.messages_sent, w.network().messages_sent());
  EXPECT_EQ(s.encode_calls, w.network().encode_calls());
}

TEST(SimTransportEncodeOnce, ByteCountMatchesPerLinkEncoding) {
  // Independent check that sharing one encoding across N links accounts the
  // same bytes as encoding per link (wire format byte-compatibility).
  Simulator sim;
  SimTransport net(sim, LatencyMatrix::uniform(3, 1.0), Rng(1),
                   SimTransport::Options{.count_bytes = true});
  for (ReplicaId r = 0; r < 3; ++r) net.register_replica(r, [](const Message&) {});

  Message m;
  m.type = MsgType::kMenPropose;
  m.from = 0;
  m.slot = 9;
  m.cmd = kv_put(1, 1, "key", "value");

  const WireFrame f(m);
  net.multicast(0, {0, 1, 2}, f);
  EXPECT_EQ(net.messages_sent(), 3u);
  EXPECT_EQ(net.encode_calls(), 1u);
  EXPECT_EQ(net.bytes_sent(), 3 * m.encode().size());
}

}  // namespace
}  // namespace crsm
