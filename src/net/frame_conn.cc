#include "net/frame_conn.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/codec.h"

namespace crsm::net {

namespace {
constexpr std::size_t kReadChunk = 64 * 1024;
// Chunks gathered per kernel handoff: 16 packed chunks of up to 64 KiB are
// well past any socket send buffer.
constexpr std::size_t kMaxIov = 16;
}  // namespace

std::string encode_hello(std::uint32_t id) {
  std::string h(8, '\0');
  std::memcpy(h.data(), &kHelloMagic, 4);
  std::memcpy(h.data() + 4, &id, 4);
  return h;
}

bool parse_hello(std::string_view buf, std::uint32_t* id) {
  std::uint32_t magic;
  std::memcpy(&magic, buf.data(), 4);
  std::memcpy(id, buf.data() + 4, 4);
  return magic == kHelloMagic;
}

FrameConn::FrameConn(EventLoop& loop, Socket sock, WireMetrics* metrics)
    : loop_(loop), sock_(std::move(sock)), metrics_(metrics) {
  set_tcp_nodelay(sock_.fd());
}

FrameConn::~FrameConn() { close(); }

void FrameConn::start(std::uint32_t hello_id, HelloHandler on_hello,
                      MessageHandler on_message, CloseHandler on_close) {
  on_hello_ = std::move(on_hello);
  on_message_ = std::move(on_message);
  on_close_ = std::move(on_close);
  loop_.add_fd(sock_.fd(), EPOLLIN,
               [this](std::uint32_t events) { handle_events(events); });
  out_.push(encode_hello(hello_id));
  hello_queued_ = true;
  (void)flush();
}

void FrameConn::send(std::string_view frame) {
  if (closed_) return;
  out_.push(frame);
}

void FrameConn::send(ByteQueue&& frames) {
  if (closed_) return;
  out_.append(std::move(frames));
}

bool FrameConn::flush() {
  if (closed_) return false;
  committed_ = out_.size();
  return drain_committed();
}

bool FrameConn::drain_committed() {
  while (committed_ > 0) {
    if (!write_some()) return false;
    if (want_write_) break;  // kernel buffer full: EPOLLOUT resumes
  }
  return true;
}

bool FrameConn::write_some() {
  iovec iov[kMaxIov];
  const std::size_t niov = out_.gather(iov, kMaxIov, committed_);
  // sendmsg + MSG_NOSIGNAL rather than writev: a peer that died (or was
  // kill -9'd) can reset the connection between our readiness check and
  // this write, and a raw writev would then raise SIGPIPE and kill the
  // whole process instead of surfacing EPIPE to the close path below.
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = niov;
  const ssize_t n = ::sendmsg(sock_.fd(), &msg, MSG_NOSIGNAL);
  if (n > 0) {
    // Our hello preamble is no frame: a write that leads with it counts no
    // flush, so frames_flushed / flushes stays the frames-per-flush factor.
    if (metrics_ && !hello_queued_) {
      metrics_->flushes.fetch_add(1, std::memory_order_relaxed);
    }
    advance_out(static_cast<std::size_t>(n));
  }
  if (n >= 0) {
    if (committed_ == 0 && want_write_) {
      want_write_ = false;
      update_interest();
    }
    return true;
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
    if (!want_write_) {
      want_write_ = true;
      update_interest();
    }
    return true;
  }
  fail();
  return false;
}

void FrameConn::advance_out(std::size_t n) {
  // A torn write leaves the head frame at the exact unsent byte: the next
  // writev resumes mid-frame, never resending bytes.
  committed_ -= n;  // written bytes were committed
  std::size_t done = out_.consume(n);
  if (hello_queued_ && done > 0) {
    hello_queued_ = false;
    --done;
  }
  if (metrics_ && done > 0) {
    metrics_->frames_flushed.fetch_add(done, std::memory_order_relaxed);
  }
}

void FrameConn::update_interest() {
  loop_.mod_fd(sock_.fd(), EPOLLIN | (want_write_ ? EPOLLOUT : 0u));
}

void FrameConn::handle_events(std::uint32_t events) {
  if (closed_) return;
  if (events & (EPOLLERR | EPOLLHUP)) {
    fail();
    return;
  }
  if (events & EPOLLOUT) {
    if (!drain_committed()) return;
  }
  if (events & EPOLLIN) handle_readable();
}

void FrameConn::handle_readable() {
  char chunk[kReadChunk];
  bool eof = false;
  for (;;) {
    const ssize_t n = ::read(sock_.fd(), chunk, sizeof(chunk));
    if (n > 0) {
      assembler_.append(std::string_view(chunk, static_cast<std::size_t>(n)));
      if (n < static_cast<ssize_t>(sizeof(chunk))) break;  // drained
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF or hard error: deliver the complete frames already buffered (a
    // peer may send its last frames and close immediately), then fail.
    eof = true;
    break;
  }
  process_inbound(eof);
}

void FrameConn::process_inbound(bool eof) {
  if (!hello_received_) {
    if (assembler_.buffered() < 8) {
      if (eof) fail();
      return;
    }
    std::uint32_t id;
    if (!parse_hello(assembler_.data(), &id)) {
      fail();
      return;
    }
    assembler_.consume(8);
    hello_received_ = true;
    if (on_hello_) on_hello_(id);
    if (closed_) return;
  }

  // Decode every complete frame zero-copy out of the assembler's buffer.
  // Handlers must copy anything they retain (Bytes copy-on-retain) and must
  // not destroy the connection from inside the callback (defer via
  // CloseHandler or EventLoop::post).
  try {
    const std::string_view frames = assembler_.complete_prefix();
    std::size_t pos = 0;
    while (pos < frames.size() && !closed_) {
      const Message m = Message::decode_stream_view(frames, &pos);
      if (on_message_) on_message_(m);
    }
    assembler_.consume(pos);
  } catch (const CodecError&) {
    fail();  // corrupt stream: drop the connection
    return;
  }
  if (eof) fail();
}

ByteQueue FrameConn::take_pending() {
  out_.rewind();
  if (hello_queued_) {
    out_.pop_front();
    hello_queued_ = false;
  }
  committed_ = 0;
  return std::exchange(out_, ByteQueue());
}

void FrameConn::close() {
  if (closed_) return;
  closed_ = true;
  if (sock_.valid()) {
    loop_.del_fd(sock_.fd());
    sock_.reset();
  }
}

void FrameConn::fail() {
  if (closed_) return;
  close();
  if (on_close_) on_close_();
}

}  // namespace crsm::net
