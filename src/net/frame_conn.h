// Length-prefixed frame streaming over one non-blocking TCP connection.
//
// Read side: raw socket bytes, read() off EPOLLIN readiness, are appended
// to a FrameAssembler, which reassembles arbitrarily chunked input (1-byte
// reads, a varint header torn across reads, many frames coalesced into one
// read) back into whole frames; complete frames are decoded zero-copy with
// Message::decode_stream_view straight out of the assembler's buffer.
//
// Write side: frames are copied into one packed ByteQueue (byte_queue.h),
// chunked contiguous bytes with frame boundaries kept, so a stalled
// connection costs its frame bytes rather than an allocation per frame.
// send() only queues; frames go to the wire when the owner calls flush() —
// at the end of the event-loop pass, or earlier once its coalescing budget
// is reached — so one writev covers every frame queued to this peer during
// the pass, usually one iovec per 64 KiB chunk.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/message.h"
#include "common/wire_frame.h"
#include "net/byte_queue.h"
#include "net/event_loop.h"
#include "net/socket.h"

namespace crsm::net {

// Reassembles a byte stream into complete length-prefixed frames. Owns a
// single contiguous buffer; complete_prefix() exposes the longest run of
// whole frames as a view so decoding can stay zero-copy, and consume()
// drops decoded bytes while keeping any partial tail for the next read.
class FrameAssembler {
 public:
  void append(std::string_view bytes) { buf_.append(bytes); }

  // View over every complete frame currently buffered (possibly several,
  // possibly none). Valid until the next append()/consume(). Throws
  // CodecError on a malformed frame header — the caller should drop the
  // connection.
  [[nodiscard]] std::string_view complete_prefix() const {
    std::size_t end = 0;
    for (;;) {
      const std::size_t n = crsm::frame_size(std::string_view(buf_).substr(end));
      if (n == 0) break;
      end += n;
    }
    return std::string_view(buf_).substr(0, end);
  }

  // Drops the first `n` bytes (a decoded complete_prefix).
  void consume(std::size_t n) { buf_.erase(0, n); }

  // Raw buffered bytes (used for the fixed-size hello preamble, which is
  // not framed).
  [[nodiscard]] std::string_view data() const { return buf_; }

  [[nodiscard]] std::size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
};

// The 8-byte connection preamble both ends exchange before frames flow:
// a magic word plus the sender's identity (replica id, or kClientHello for
// a client driver). The acceptor learns who dialed; the dialer learns which
// replica answered.
inline constexpr std::uint32_t kHelloMagic = 0x4352534dU;  // "CRSM"
inline constexpr std::uint32_t kClientHello = 0xFFFFFFFFU;

// The preamble's one wire format, shared by FrameConn and SyncClient.
[[nodiscard]] std::string encode_hello(std::uint32_t id);
// Parses the first 8 bytes of `buf`; returns false on bad magic (the
// caller should drop the connection). `buf` must hold >= 8 bytes.
[[nodiscard]] bool parse_hello(std::string_view buf, std::uint32_t* id);

// Wire-level flush accounting, shared by every conn of one transport (the
// owner outlives its conns). One "flush" is one sendmsg call that wrote
// bytes; frames_flushed / flushes is the achieved coalescing factor.
struct WireMetrics {
  std::atomic<std::uint64_t> flushes{0};
  std::atomic<std::uint64_t> frames_flushed{0};
};

class FrameConn {
 public:
  using MessageHandler = std::function<void(const Message&)>;
  // `id` is the peer's hello identity (replica id or kClientHello).
  using HelloHandler = std::function<void(std::uint32_t id)>;
  // Fired once, on EOF, I/O error or protocol error; the connection is
  // already deregistered when it runs. The owner should destroy the conn.
  using CloseHandler = std::function<void()>;

  // Takes ownership of a connected non-blocking socket. All methods are
  // loop-thread only. `metrics`, when given, must outlive the conn.
  FrameConn(EventLoop& loop, Socket sock, WireMetrics* metrics = nullptr);
  ~FrameConn();

  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;

  // Registers with the loop and sends our hello. Inbound frames before the
  // peer's hello arrives are buffered; `on_hello` fires first, then
  // `on_message` once per decoded frame.
  void start(std::uint32_t hello_id, HelloHandler on_hello,
             MessageHandler on_message, CloseHandler on_close);

  // Copies one encoded frame into the send queue; nothing reaches the wire
  // until flush().
  void send(std::string_view frame);
  // Splices whole frames (a reconnect backlog) onto the send queue without
  // copying them.
  void send(ByteQueue&& frames);

  // Commits everything queued and attempts to drain it right now — writev
  // until done or EAGAIN (EPOLLOUT then continues the drain). Returns false
  // if the connection died.
  bool flush();

  [[nodiscard]] std::size_t pending_bytes() const { return out_.size(); }
  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] int fd() const { return sock_.fd(); }

  // Owner-side dedupe flag for per-pass dirty lists.
  [[nodiscard]] bool flush_queued() const { return flush_queued_; }
  void set_flush_queued(bool q) { flush_queued_ = q; }

  // Unsent frames (our hello preamble excluded), for requeueing onto a
  // replacement connection after a reconnect. A partially written head
  // frame is included from its first byte: the receiver discards partial
  // frames on close, so a full resend cannot duplicate. Leaves the queue
  // empty.
  [[nodiscard]] ByteQueue take_pending();

  void close();  // deregisters and closes; does NOT fire on_close

 private:
  // Writes committed bytes until drained or EAGAIN. Never touches frames
  // queued but not yet flushed: EPOLLOUT must not leak them to the wire
  // early (send() alone puts nothing on the wire until flush()).
  bool drain_committed();
  void handle_events(std::uint32_t events);
  void handle_readable();
  // Decodes hello + buffered frames; `eof` fails the conn afterwards.
  void process_inbound(bool eof);
  // One sendmsg: advances the queue past exactly the bytes written, or arms
  // write interest on EAGAIN. Returns false if the conn died.
  bool write_some();
  // Marks exactly `n` written bytes off out_, keeping the unsent tail —
  // a torn writev leaves the head frame at the precise unsent byte.
  void advance_out(std::size_t n);
  void update_interest();
  void fail();  // close + fire on_close

  EventLoop& loop_;
  Socket sock_;
  WireMetrics* metrics_;
  FrameAssembler assembler_;
  // Our hello preamble leads out_ until written, then frames only.
  ByteQueue out_;
  bool hello_queued_ = false;
  // Leading out_ bytes eligible for the wire (committed by flush()). The
  // gap out_.size() - committed_ is what the owner has queued since the
  // last flush.
  std::size_t committed_ = 0;
  bool flush_queued_ = false;
  bool want_write_ = false;
  bool hello_received_ = false;
  bool closed_ = false;

  HelloHandler on_hello_;
  MessageHandler on_message_;
  CloseHandler on_close_;
};

}  // namespace crsm::net
