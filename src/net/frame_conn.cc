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
// Frames gathered per kernel handoff. Coalescing batches whole passes into
// one writev, so give it room well past the old per-send fan-out.
constexpr std::size_t kMaxIov = 64;
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
  pending_bytes_ += 8;
  out_.push_back(Pending{
      std::make_shared<const std::string>(encode_hello(hello_id)), 0,
      /*is_hello=*/true});
  (void)flush();
}

void FrameConn::send(std::shared_ptr<const std::string> frame) {
  if (closed_ || frame->empty()) return;
  pending_bytes_ += frame->size();
  out_.push_back(Pending{std::move(frame), 0, /*is_hello=*/false});
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
  const std::size_t nent = committed_ < kMaxIov ? committed_ : kMaxIov;
  if (nent == 0) return true;
  iovec iov[kMaxIov];
  std::size_t niov = 0;
  for (const Pending& p : out_) {
    if (niov == nent) break;
    iov[niov].iov_base = const_cast<char*>(p.buf->data() + p.offset);
    iov[niov].iov_len = p.buf->size() - p.offset;
    ++niov;
  }
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
    if (metrics_ && !out_.front().is_hello) {
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
  pending_bytes_ -= n;
  std::size_t left = n;
  while (left > 0) {
    Pending& p = out_.front();
    const std::size_t rest = p.buf->size() - p.offset;
    if (left < rest) {
      // Torn write: keep the head frame, advanced to the exact unsent
      // tail — the next writev resumes mid-frame, never resending bytes.
      p.offset += left;
      left = 0;
    } else {
      left -= rest;
      if (metrics_ && !p.is_hello) {
        metrics_->frames_flushed.fetch_add(1, std::memory_order_relaxed);
      }
      out_.pop_front();
      if (committed_ > 0) --committed_;  // written entries were committed
    }
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

std::deque<std::shared_ptr<const std::string>> FrameConn::take_pending() {
  std::deque<std::shared_ptr<const std::string>> frames;
  for (Pending& p : out_) {
    if (!p.is_hello) frames.push_back(std::move(p.buf));
  }
  out_.clear();
  pending_bytes_ = 0;
  committed_ = 0;
  return frames;
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
