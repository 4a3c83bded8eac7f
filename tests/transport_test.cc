// Tests for the shared wire pipeline: lazy encode-once WireFrames, the
// acceptance counters from the wire-pipeline refactor on SimTransport (a
// broadcast message is serialized exactly once regardless of fan-out, with
// bytes-on-the-wire unchanged), and TcpTransport's flush fence over real
// sockets. tcp_cluster_test's TcpBackendTest.EncodeOnceAndCoalescingCountersHold
// checks the same counters over real sockets.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/wire_frame.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "net/sync_client.h"
#include "test_util.h"
#include "transport/tcp_transport.h"

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

// --- TcpTransport flush fence ----------------------------------------------

class LoopThread {
 public:
  LoopThread() : thread_([this] { loop_.run(); }) {}
  ~LoopThread() { stop(); }
  net::EventLoop& loop() { return loop_; }
  // Stops and joins the loop; tasks still queued never run.
  void stop() {
    loop_.stop();
    if (thread_.joinable()) thread_.join();
  }

 private:
  net::EventLoop loop_;
  std::thread thread_;
};

// Runs `fn` on the loop thread and waits for it.
void run_on(net::EventLoop& loop, const std::function<void()>& fn) {
  std::promise<void> done;
  loop.post([&] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

template <typename Pred>
bool eventually(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// A peer-link frame tagged by slot, well past the test's 64-byte budget.
WireFrame tagged(std::uint64_t slot) {
  Message m;
  m.type = MsgType::kMenPropose;
  m.slot = slot;
  m.cmd = kv_put(1, slot, "key", std::string(100, 'p'));
  return FrameWriter(0).frame(m);
}

// With the fence up, no path leaves early: not frames past the coalescing
// budget on a live peer link or on a client connection, not a reconnect
// backlog adopted mid-pass, not a self-send. Once lifted, each destination
// receives everything in production order.
TEST(TcpTransportFence, HoldsEveryPathUntilLiftedThenDeliversInOrder) {
  LoopThread la, lb;
  TcpTransport::Options opt;
  opt.max_coalesce_bytes = 64;
  opt.reconnect.initial_backoff_us = 2'000;
  opt.reconnect.max_backoff_us = 20'000;
  // Reserve-and-release a port: peer 1 is down (dials are refused) until
  // it binds there.
  std::uint16_t b_port = 0;
  {
    net::Socket probe = net::tcp_listen("127.0.0.1", 0);
    b_port = net::local_port(probe.fd());
  }
  auto a = std::make_unique<TcpTransport>(la.loop(), 0, opt);
  const std::vector<TcpPeer> peers{{"127.0.0.1", a->port()},
                                   {"127.0.0.1", b_port}};

  std::mutex mu;
  std::vector<std::uint64_t> a_got, b_got;  // slots, in arrival order
  std::atomic<std::uint64_t> client_conn{0};
  a->register_handler([&](const Message& m) {
    std::lock_guard<std::mutex> lk(mu);
    a_got.push_back(m.slot);
  });
  a->set_client_handlers(
      [&](std::uint64_t conn, const Message&) { client_conn = conn; },
      [](std::uint64_t) {});
  run_on(la.loop(), [&] { a->start(peers); });

  // A client introduces itself with one request so A knows its connection.
  net::SyncClient client("127.0.0.1", a->port());
  client.send_request(kv_put(9, 1, "k", "v"));
  ASSERT_TRUE(eventually([&] { return client_conn.load() != 0; }));

  auto reply = [](std::uint64_t seq) {
    Message m;
    m.type = MsgType::kClientReply;
    m.cmd.client = 9;
    m.cmd.seq = seq;
    m.blob = std::string(100, 'r');
    return FrameWriter(0).frame(m);
  };
  run_on(la.loop(), [&] {
    a->raise_fence();
    for (std::uint64_t slot = 1; slot <= 3; ++slot) a->send(0, 1, tagged(slot));
    a->send(0, 0, tagged(100));
    for (std::uint64_t seq = 1; seq <= 4; ++seq) {
      a->send_to_client(client_conn.load(), reply(seq));
    }
  });
  run_on(la.loop(), [] {});  // a later pass: the fence outlives passes
  // Peer 1 comes up: its start-up wake makes A dial at once and adopt the
  // backlog, fence still up.
  TcpTransport::Options bopt = opt;
  bopt.listen_port = b_port;
  auto b = std::make_unique<TcpTransport>(lb.loop(), 1, bopt);
  b->register_handler([&](const Message& m) {
    std::lock_guard<std::mutex> lk(mu);
    b_got.push_back(m.slot);
  });
  run_on(lb.loop(), [&] { b->start(peers); });
  ASSERT_TRUE(eventually(
      [&] { return a->connected_peers() == 1 && b->connected_peers() == 1; }));
  run_on(la.loop(), [&] {
    EXPECT_TRUE(a->fenced());
    for (std::uint64_t slot = 4; slot <= 6; ++slot) a->send(0, 1, tagged(slot));
    a->send(0, 0, tagged(101));
  });

  // Many passes of both loops: nothing may arrive anywhere.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_TRUE(b_got.empty()) << b_got.size() << " frames passed the fence";
    EXPECT_TRUE(a_got.empty()) << "a self-send passed the fence";
  }
  EXPECT_THROW((void)client.read_reply(50), net::NetError);

  run_on(la.loop(), [&] { a->lift_fence(); });
  ASSERT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lk(mu);
    return b_got.size() == 6 && a_got.size() == 2;
  }));
  {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(b_got, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(a_got, (std::vector<std::uint64_t>{100, 101}));
  }
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    EXPECT_EQ(client.read_reply(2000).cmd.seq, seq);
  }

  run_on(la.loop(), [&] { a->shutdown(); });
  run_on(lb.loop(), [&] { b->shutdown(); });
  // Stop the loops before the transports go: a task they posted (a
  // graveyard sweep) must not run on a destroyed transport.
  la.stop();
  lb.stop();
}

}  // namespace
}  // namespace crsm
