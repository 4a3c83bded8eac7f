// Tests for the src/net building blocks: EventLoop timers/posts,
// FrameAssembler reassembly, the packed ByteQueue (torn consumes, rewind,
// splice), Acceptor/Connector establishment (including connect-before-listen
// retry), FrameConn round trips on loopback, the exact-tail resume of a torn
// coalesced writev and take_pending's whole-frame handback.
#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/wire_frame.h"
#include "net/acceptor.h"
#include "net/byte_queue.h"
#include "net/connector.h"
#include "net/event_loop.h"
#include "net/frame_conn.h"
#include "net/socket.h"
#include "test_util.h"

namespace crsm {
namespace {

using net::Acceptor;
using net::ByteQueue;
using net::Connector;
using net::EventLoop;
using net::FrameAssembler;
using net::FrameConn;
using net::Socket;

// Runs an EventLoop on a background thread for a test's duration.
class LoopThread {
 public:
  LoopThread() : thread_([this] { loop_.run(); }) {}
  ~LoopThread() {
    loop_.stop();
    thread_.join();
  }
  EventLoop& loop() { return loop_; }

 private:
  EventLoop loop_;
  std::thread thread_;
};

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds deadline =
                               std::chrono::milliseconds(5000)) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// --- EventLoop -------------------------------------------------------------

TEST(EventLoop, PostRunsOnLoopThreadInOrder) {
  LoopThread lt;
  std::vector<int> order;
  std::atomic<bool> done{false};
  for (int i = 0; i < 10; ++i) {
    lt.loop().post([&, i] {
      EXPECT_TRUE(lt.loop().on_loop_thread());
      order.push_back(i);
      if (i == 9) done = true;
    });
  }
  ASSERT_TRUE(eventually([&] { return done.load(); }));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventLoop, TimersFireInDeadlineOrder) {
  LoopThread lt;
  std::vector<int> order;
  std::atomic<int> fired{0};
  lt.loop().post([&] {
    lt.loop().schedule_after(30'000, [&] { order.push_back(3); ++fired; });
    lt.loop().schedule_after(5'000, [&] { order.push_back(1); ++fired; });
    lt.loop().schedule_after(15'000, [&] { order.push_back(2); ++fired; });
  });
  ASSERT_TRUE(eventually([&] { return fired.load() == 3; }));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, CancelledTimerDoesNotFire) {
  LoopThread lt;
  std::atomic<bool> fired{false};
  std::atomic<bool> late{false};
  lt.loop().post([&] {
    const net::TimerId id =
        lt.loop().schedule_after(10'000, [&] { fired = true; });
    lt.loop().cancel_timer(id);
    lt.loop().schedule_after(50'000, [&] { late = true; });
  });
  ASSERT_TRUE(eventually([&] { return late.load(); }));
  EXPECT_FALSE(fired.load());
}

TEST(EventLoop, StopBeforeRunReturnsImmediately) {
  EventLoop loop;
  loop.stop();
  loop.run();  // must not hang
}

// --- FrameAssembler --------------------------------------------------------

TEST(FrameAssembler, ReassemblesAcrossArbitraryChunks) {
  Message m;
  m.type = MsgType::kClientRequest;
  m.cmd = test::kv_put(7, 1, "key", "value");
  const std::string frame = m.encode();

  // Three coalesced frames, fed one byte at a time.
  std::string stream = frame + frame + frame;
  FrameAssembler a;
  std::size_t seen = 0;
  for (char c : stream) {
    a.append(std::string_view(&c, 1));
    const std::string_view ready = a.complete_prefix();
    std::size_t pos = 0;
    while (pos < ready.size()) {
      (void)Message::decode_stream_view(ready, &pos);
      ++seen;
    }
    a.consume(pos);
  }
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(a.buffered(), 0u);
}

TEST(FrameAssembler, MalformedHeaderThrows) {
  FrameAssembler a;
  // 10 continuation bytes = varint longer than any valid u64.
  a.append(std::string(10, '\xff'));
  EXPECT_THROW((void)a.complete_prefix(), CodecError);
}

// --- ByteQueue -------------------------------------------------------------

// Every unsent byte of `q`, in order, as gather() hands them to the kernel.
std::string contents(const ByteQueue& q) {
  std::vector<iovec> iov(q.size() / ByteQueue::kMinChunkBytes + 8);
  const std::size_t n = q.gather(iov.data(), iov.size(), q.size());
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    out.append(static_cast<const char*>(iov[i].iov_base), iov[i].iov_len);
  }
  return out;
}

// `count` frames of `size` bytes, each filled with its own letter so a
// misplaced byte range shows.
std::vector<std::string> lettered_frames(std::size_t count, std::size_t size) {
  std::vector<std::string> frames;
  for (std::size_t i = 0; i < count; ++i) {
    frames.emplace_back(size, static_cast<char>('a' + i % 26));
  }
  return frames;
}

std::string joined(const std::vector<std::string>& frames, std::size_t from = 0) {
  std::string out;
  for (std::size_t i = from; i < frames.size(); ++i) out += frames[i];
  return out;
}

// Small frames pack back to back into one chunk; a torn write — a consume
// that ends inside a frame inside that chunk — resumes at the exact next
// byte, and only whole frames count as done.
TEST(ByteQueue, TornConsumeResumesInsideAPackedChunkAtTheExactByte) {
  const auto frames = lettered_frames(5, 100);
  const std::string stream = joined(frames);
  ByteQueue q;
  for (const std::string& f : frames) q.push(f);
  iovec iov[4];
  ASSERT_EQ(q.gather(iov, 4, q.size()), 1u) << "five small frames, one chunk";
  EXPECT_EQ(q.size(), 500u);
  EXPECT_EQ(q.frames(), 5u);

  EXPECT_EQ(q.consume(137), 1u);  // frame 0 done, frame 1 torn at byte 37
  EXPECT_EQ(q.size(), 363u);
  EXPECT_EQ(q.frames(), 4u);
  EXPECT_EQ(contents(q), stream.substr(137));
  // A gather capped mid-frame stops at the cap.
  ASSERT_EQ(q.gather(iov, 4, 10), 1u);
  EXPECT_EQ(std::string(static_cast<const char*>(iov[0].iov_base), 10),
            stream.substr(137, 10));

  EXPECT_EQ(q.consume(63), 1u);  // exactly the rest of frame 1
  EXPECT_EQ(contents(q), stream.substr(200));
  EXPECT_EQ(q.consume(1), 0u);
  EXPECT_EQ(contents(q), stream.substr(201));
  EXPECT_EQ(q.consume(299), 3u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.gather(iov, 4, 100), 0u) << "a drained queue holds no chunk";
}

// Frames larger than a chunk span several; consuming at odd offsets walks
// every chunk boundary without losing or repeating a byte.
TEST(ByteQueue, FramesSpanChunksAndDrainByteExact) {
  const auto frames = lettered_frames(4, 100 * 1024 + 3);
  const std::string stream = joined(frames);
  ByteQueue q;
  for (const std::string& f : frames) q.push(f);
  EXPECT_EQ(q.size(), stream.size());
  std::size_t off = 0, done = 0;
  while (!q.empty()) {
    ASSERT_EQ(contents(q), stream.substr(off));
    const std::size_t step = std::min<std::size_t>(q.size(), 7919);
    done += q.consume(step);
    off += step;
  }
  EXPECT_EQ(off, stream.size());
  EXPECT_EQ(done, frames.size());
}

// rewind() hands a torn queue back as whole frames from the head frame's
// start; append() splices whole frames behind without copying; pop_front()
// drops the head frame.
TEST(ByteQueue, RewindSpliceAndPopKeepWholeFrames) {
  const auto frames = lettered_frames(6, 300);
  ByteQueue q;
  for (std::size_t i = 0; i < 3; ++i) q.push(frames[i]);
  (void)q.consume(450);  // frame 0 done, frame 1 half written
  q.rewind();
  EXPECT_EQ(q.size(), 600u);
  EXPECT_EQ(contents(q), frames[1] + frames[2]);

  ByteQueue tail;
  for (std::size_t i = 3; i < 6; ++i) tail.push(frames[i]);
  q.append(std::move(tail));
  EXPECT_TRUE(tail.empty());
  EXPECT_EQ(q.frames(), 5u);
  EXPECT_EQ(contents(q), joined(frames, 1));
  q.push(frames[0]);  // pushes land behind the spliced frames
  EXPECT_EQ(contents(q), joined(frames, 1) + frames[0]);

  q.pop_front();
  EXPECT_EQ(contents(q), joined(frames, 2) + frames[0]);
  EXPECT_EQ(q.consume(q.size()), 5u);
  EXPECT_TRUE(q.empty());

  ByteQueue empty;
  empty.append(std::move(q));  // splicing an empty queue is a no-op
  EXPECT_TRUE(empty.empty());
}

// --- Acceptor / Connector / FrameConn --------------------------------------

// One established FrameConn pair over loopback: frames sent from one end
// arrive decoded on the other, hellos carry identity both ways.
TEST(FrameConn, HelloAndFramesRoundTrip) {
  LoopThread lt;
  EventLoop& loop = lt.loop();

  std::unique_ptr<Acceptor> acceptor;
  std::unique_ptr<Connector> connector;
  std::unique_ptr<FrameConn> server, client;
  std::atomic<std::uint32_t> server_saw_hello{0}, client_saw_hello{0};
  std::atomic<std::uint64_t> server_got{0};
  std::vector<std::uint64_t> slots;

  std::atomic<std::uint16_t> port{0};
  loop.post([&] {
    acceptor = std::make_unique<Acceptor>(loop, "127.0.0.1", 0);
    acceptor->start([&](Socket&& s) {
      server = std::make_unique<FrameConn>(loop, std::move(s));
      server->start(
          /*hello_id=*/1, [&](std::uint32_t id) { server_saw_hello = id; },
          [&](const Message& m) {
            slots.push_back(m.slot);
            ++server_got;
          },
          [] {});
    });
    port = acceptor->port();
  });
  ASSERT_TRUE(eventually([&] { return port.load() != 0; }));

  loop.post([&] {
    connector = std::make_unique<Connector>(loop, "127.0.0.1", port.load());
    connector->start([&](Socket&& s) {
      client = std::make_unique<FrameConn>(loop, std::move(s));
      client->start(
          /*hello_id=*/2, [&](std::uint32_t id) { client_saw_hello = id; },
          [](const Message&) {}, [] {});
      for (std::uint64_t i = 0; i < 5; ++i) {
        Message m;
        m.type = MsgType::kMenAck;
        m.slot = i;
        m.a = i * 10;
        client->send(WireFrame(std::move(m)).bytes());
      }
      (void)client->flush();
    });
  });

  ASSERT_TRUE(eventually([&] { return server_got.load() == 5; }));
  EXPECT_EQ(server_saw_hello.load(), 2u);
  EXPECT_EQ(client_saw_hello.load(), 1u);
  EXPECT_EQ(slots, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));

  std::atomic<bool> cleaned{false};
  loop.post([&] {
    client.reset();
    server.reset();
    connector.reset();
    acceptor.reset();
    cleaned = true;
  });
  ASSERT_TRUE(eventually([&] { return cleaned.load(); }));
}

// A connector started before any listener exists must keep retrying with
// backoff and succeed once the listener appears — the reconnect primitive.
TEST(Connector, ConnectsAfterListenerAppears) {
  LoopThread lt;
  EventLoop& loop = lt.loop();

  // Reserve an ephemeral port, remember it, and close the listener so the
  // first connect attempts are refused.
  std::uint16_t port = 0;
  {
    Socket probe = net::tcp_listen("127.0.0.1", 0);
    port = net::local_port(probe.fd());
  }

  std::unique_ptr<Connector> connector;
  std::atomic<bool> connected{false};
  loop.post([&] {
    net::ConnectorOptions copt;
    copt.initial_backoff_us = 2'000;
    copt.max_backoff_us = 20'000;
    connector = std::make_unique<Connector>(loop, "127.0.0.1", port, copt);
    connector->start([&](Socket&&) { connected = true; });
  });

  // Let several refused attempts happen.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(connected.load());

  std::unique_ptr<Acceptor> acceptor;
  std::atomic<bool> accepted{false};
  loop.post([&] {
    acceptor = std::make_unique<Acceptor>(loop, "127.0.0.1", port);
    acceptor->start([&](Socket&&) { accepted = true; });
  });

  ASSERT_TRUE(eventually([&] { return connected.load() && accepted.load(); }));
  EXPECT_GT(connector->attempts(), 1u);

  std::atomic<bool> cleaned{false};
  loop.post([&] {
    connector.reset();
    acceptor.reset();
    cleaned = true;
  });
  ASSERT_TRUE(eventually([&] { return cleaned.load(); }));
}

// A connector deep in backoff (the far end was down) must dial at once on
// retry_now(): the transport calls it when a restarted peer wakes it, so
// the link comes back without waiting out the timer.
TEST(Connector, RetryNowSkipsBackoffOnceListenerExists) {
  LoopThread lt;
  EventLoop& loop = lt.loop();

  std::uint16_t port = 0;
  {
    Socket probe = net::tcp_listen("127.0.0.1", 0);
    port = net::local_port(probe.fd());
  }

  // A backoff far longer than the test: only retry_now() can connect.
  std::unique_ptr<Connector> connector;
  std::atomic<bool> connected{false};
  std::atomic<std::uint64_t> attempts_at_connect{0};
  loop.post([&] {
    net::ConnectorOptions copt;
    copt.initial_backoff_us = 60'000'000;
    copt.max_backoff_us = 60'000'000;
    connector = std::make_unique<Connector>(loop, "127.0.0.1", port, copt);
    connector->start([&](Socket&&) {
      attempts_at_connect = connector->attempts();
      connected = true;
    });
  });

  std::unique_ptr<Acceptor> acceptor;
  std::atomic<bool> accepted{false};
  loop.post([&] {
    acceptor = std::make_unique<Acceptor>(loop, "127.0.0.1", port);
    acceptor->start([&](Socket&&) { accepted = true; });
  });
  // The first attempt was refused before the listener existed; the
  // connector now sleeps out its backoff.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(connected.load());

  loop.post([&] { connector->retry_now(); });
  ASSERT_TRUE(eventually([&] { return connected.load() && accepted.load(); },
                         std::chrono::milliseconds(2000)));
  EXPECT_EQ(attempts_at_connect.load(), 2u);

  // Once connected it is idle: retry_now() must not dial again.
  std::atomic<bool> checked{false};
  std::atomic<std::uint64_t> attempts_after{0};
  loop.post([&] {
    connector->retry_now();
    attempts_after = connector->attempts();
    EXPECT_FALSE(connector->connecting());
    connector.reset();
    acceptor.reset();
    checked = true;
  });
  ASSERT_TRUE(eventually([&] { return checked.load(); }));
  EXPECT_EQ(attempts_after.load(), 2u);
}

// --- Torn coalesced writev: exact-tail requeue ------------------------------

// A coalesced flush over a socket with a tiny send buffer is guaranteed to
// tear: the kernel accepts only part of the gathered write, possibly
// mid-frame. The conn must requeue the exact unsent tail — every frame
// arrives whole, in order, with no bytes duplicated or lost.
TEST(FrameConn, TornCoalescedWritevRequeuesExactTail) {
  LoopThread lt;
  EventLoop& loop = lt.loop();

  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Shrink both directions' buffers so a ~130 KiB flush cannot fit: the
  // kernel clamps to a floor (~4 KiB), which is all we need.
  const int tiny = 1;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)),
            0);
  ASSERT_EQ(::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny)),
            0);
  net::set_nonblocking(fds[0]);
  net::set_nonblocking(fds[1]);

  constexpr std::uint64_t kFrames = 64;
  const std::string big_value(2048, 'v');
  // Every frame carries the same ~2 KiB KvRequest encoding; any torn or
  // duplicated byte range would corrupt a payload (or desync the framing).
  const std::string expect_payload =
      test::kv_put(7, 1, "key", big_value).payload.str();

  std::unique_ptr<FrameConn> writer, reader;
  std::atomic<std::uint64_t> got{0};
  std::atomic<bool> order_ok{true};
  std::atomic<bool> payload_ok{true};
  std::atomic<bool> died{false};
  std::atomic<std::size_t> queued_bytes{0};

  std::atomic<bool> started{false};
  loop.post([&] {
    reader = std::make_unique<FrameConn>(loop, Socket(fds[1]));
    reader->start(
        /*hello_id=*/1, [](std::uint32_t) {},
        [&](const Message& m) {
          // kClientRequest encodes only the command; seq carries the order.
          const std::uint64_t expect = got.load() + 1;
          if (m.cmd.seq != expect) order_ok = false;
          if (m.cmd.payload.view() != expect_payload) payload_ok = false;
          ++got;
        },
        [&] { died = true; });

    writer = std::make_unique<FrameConn>(loop, Socket(fds[0]));
    writer->start(
        /*hello_id=*/2, [](std::uint32_t) {}, [](const Message&) {},
        [&] { died = true; });
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      Message m;
      m.type = MsgType::kClientRequest;
      m.cmd = test::kv_put(7, i + 1, "key", big_value);
      writer->send(WireFrame(std::move(m)).bytes());
    }
    // Far more queued than the send buffer admits: this one flush MUST
    // tear, exercising the partial-write requeue path repeatedly as the
    // reader drains.
    queued_bytes = writer->pending_bytes();
    (void)writer->flush();
    started = true;
  });
  ASSERT_TRUE(eventually([&] { return started.load(); }));
  EXPECT_GT(queued_bytes.load(), 64u * 1024u);

  ASSERT_TRUE(eventually([&] { return got.load() == kFrames || died.load(); }));
  EXPECT_FALSE(died.load());
  EXPECT_EQ(got.load(), kFrames);
  EXPECT_TRUE(order_ok.load());
  EXPECT_TRUE(payload_ok.load());

  std::atomic<bool> cleaned{false};
  loop.post([&] {
    writer.reset();
    reader.reset();
    cleaned = true;
  });
  ASSERT_TRUE(eventually([&] { return cleaned.load(); }));
}

// The packed counterpart of the test above: hundreds of small frames share
// each 64 KiB chunk, so the kernel's partial accepts tear the writev inside
// a chunk and inside a frame, again and again. Every frame still arrives
// whole, in order, byte-exact.
TEST(FrameConn, TornWriteResumesInsideAPackedChunk) {
  LoopThread lt;
  EventLoop& loop = lt.loop();

  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int tiny = 1;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)),
            0);
  ASSERT_EQ(::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny)),
            0);
  net::set_nonblocking(fds[0]);
  net::set_nonblocking(fds[1]);

  constexpr std::uint64_t kFrames = 600;
  const std::string value(213, 'p');  // odd-sized frames
  const std::string expect_payload =
      test::kv_put(7, 1, "key", value).payload.str();

  std::unique_ptr<FrameConn> writer, reader;
  std::atomic<std::uint64_t> got{0};
  std::atomic<bool> order_ok{true}, payload_ok{true}, died{false};
  std::atomic<bool> started{false};
  loop.post([&] {
    reader = std::make_unique<FrameConn>(loop, Socket(fds[1]));
    reader->start(
        /*hello_id=*/1, [](std::uint32_t) {},
        [&](const Message& m) {
          if (m.cmd.seq != got.load() + 1) order_ok = false;
          if (m.cmd.payload.view() != expect_payload) payload_ok = false;
          ++got;
        },
        [&] { died = true; });
    writer = std::make_unique<FrameConn>(loop, Socket(fds[0]));
    writer->start(
        /*hello_id=*/2, [](std::uint32_t) {}, [](const Message&) {},
        [&] { died = true; });
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      Message m;
      m.type = MsgType::kClientRequest;
      m.cmd = test::kv_put(7, i + 1, "key", value);
      writer->send(WireFrame(std::move(m)).bytes());
    }
    (void)writer->flush();
    started = true;
  });
  ASSERT_TRUE(eventually([&] { return started.load(); }));
  ASSERT_TRUE(eventually([&] { return got.load() == kFrames || died.load(); }));
  EXPECT_FALSE(died.load());
  EXPECT_EQ(got.load(), kFrames);
  EXPECT_TRUE(order_ok.load());
  EXPECT_TRUE(payload_ok.load());

  std::atomic<bool> cleaned{false};
  loop.post([&] {
    writer.reset();
    reader.reset();
    cleaned = true;
  });
  ASSERT_TRUE(eventually([&] { return cleaned.load(); }));
}

// take_pending() after a torn write hands back whole frames: the torn head
// frame from its first byte (the receiver drops a partial frame when the
// socket dies, so resending it whole cannot duplicate), never our hello.
TEST(FrameConn, TakePendingReturnsWholeFramesFromTheHeadHelloExcluded) {
  EventLoop loop;  // not run: the test thread is the loop thread here
  const auto frames = lettered_frames(40, 1000);
  // Wire frames: a varint length prefix (2 bytes for 998) plus the body.
  std::vector<std::string> wire;
  for (const std::string& f : frames) {
    std::string w;
    w.push_back(static_cast<char>(0x80 | (998 & 0x7F)));
    w.push_back(static_cast<char>(998 >> 7));
    w.append(f, 0, 998);
    wire.push_back(std::move(w));
  }

  {
    // Torn: a tiny send buffer takes the hello and part of the frames.
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const int tiny = 1;
    ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)),
              0);
    net::set_nonblocking(fds[0]);
    FrameConn writer(loop, Socket(fds[0]));
    writer.start(2, [](std::uint32_t) {}, [](const Message&) {}, [] {});
    for (const std::string& w : wire) writer.send(w);
    const std::size_t queued = writer.pending_bytes();
    ASSERT_TRUE(writer.flush());
    // start() already wrote the hello, so `written` counts frame bytes.
    const std::size_t written = queued - writer.pending_bytes();
    ASSERT_GT(written, 0u);
    ASSERT_LT(written, queued) << "the send buffer took everything";
    const std::size_t head = written / 1000;  // frame holding the next byte
    const ByteQueue taken = writer.take_pending();
    EXPECT_EQ(taken.frames(), wire.size() - head);
    EXPECT_EQ(contents(taken), joined(wire, head));
    EXPECT_EQ(writer.pending_bytes(), 0u);
    ::close(fds[1]);
  }
  {
    // Hello unsent: a send buffer already full takes nothing at all.
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    net::set_nonblocking(fds[0]);
    const std::string filler(4096, 'x');
    while (::send(fds[0], filler.data(), filler.size(), MSG_DONTWAIT) > 0) {
    }
    FrameConn writer(loop, Socket(fds[0]));
    writer.start(2, [](std::uint32_t) {}, [](const Message&) {}, [] {});
    for (std::size_t i = 0; i < 3; ++i) writer.send(wire[i]);
    ASSERT_TRUE(writer.flush());
    EXPECT_EQ(writer.pending_bytes(), 8u + 3u * 1000u);
    const ByteQueue taken = writer.take_pending();
    EXPECT_EQ(taken.frames(), 3u);
    EXPECT_EQ(contents(taken), wire[0] + wire[1] + wire[2]);
    ::close(fds[1]);
  }
}

// Sends really defer: send() alone puts nothing on the wire until flush()
// (the transport's pass-end hook in production).
TEST(FrameConn, CoalescedSendDefersUntilFlush) {
  LoopThread lt;
  EventLoop& loop = lt.loop();

  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::set_nonblocking(fds[0]);
  net::set_nonblocking(fds[1]);

  std::unique_ptr<FrameConn> writer, reader;
  std::atomic<std::uint64_t> got{0};
  std::atomic<bool> armed{false};
  loop.post([&] {
    reader = std::make_unique<FrameConn>(loop, Socket(fds[1]));
    reader->start(
        /*hello_id=*/1, [](std::uint32_t) {},
        [&](const Message&) { ++got; }, [] {});
    writer = std::make_unique<FrameConn>(loop, Socket(fds[0]));
    writer->start(
        /*hello_id=*/2, [](std::uint32_t) {}, [](const Message&) {}, [] {});
    for (std::uint64_t i = 0; i < 8; ++i) {
      Message m;
      m.type = MsgType::kMenAck;
      m.slot = i;
      writer->send(WireFrame(std::move(m)).bytes());
    }
    armed = true;
  });
  ASSERT_TRUE(eventually([&] { return armed.load(); }));

  // Nothing (beyond the hello) flows while the frames sit coalesced.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(got.load(), 0u);

  loop.post([&] { (void)writer->flush(); });
  ASSERT_TRUE(eventually([&] { return got.load() == 8; }));

  std::atomic<bool> cleaned{false};
  loop.post([&] {
    writer.reset();
    reader.reset();
    cleaned = true;
  });
  ASSERT_TRUE(eventually([&] { return cleaned.load(); }));
}

}  // namespace
}  // namespace crsm
