// Encode-once wire frames for the fan-out send path.
//
// The paper's throughput experiment (Section VI-D) pins the local-cluster
// bottleneck on message sending/receiving CPU. Every protocol here is
// broadcast-heavy: a PREPARE or PHASE2A goes to all N replicas. Serializing
// the same Message once per link made encoding cost scale with fan-out; a
// WireFrame serializes it at most once and hands the same bytes to every
// link it is sent on.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/codec.h"
#include "common/message.h"
#include "common/types.h"

namespace crsm {

// Upper bound on a single frame body. Real messages are far smaller (the
// largest are CATCHUPREPLY record batches); anything bigger coming off a
// socket is a corrupt or hostile length prefix, and rejecting it here keeps
// stream reassembly from buffering gigabytes before the decoder ever runs.
inline constexpr std::uint64_t kMaxFrameBody = 1ull << 30;

// Scans the frame header (the varint body-length prefix every encoded
// Message starts with) at the front of `buf`. Returns the total size of the
// first frame — header plus body — or 0 if `buf` does not yet hold a
// complete frame. Throws CodecError on a malformed or implausible header,
// the signal for a stream reader to drop the connection.
[[nodiscard]] inline std::size_t frame_size(std::string_view buf) {
  std::uint64_t len = 0;
  int shift = 0;
  std::size_t header = 0;
  for (;;) {
    // Overflow first: ten continuation bytes are malformed no matter how
    // many more bytes arrive, so this must not be mistaken for "partial".
    if (shift > 63) throw CodecError("frame header varint overflow");
    if (header >= buf.size()) return 0;  // header itself still partial
    const auto b = static_cast<std::uint8_t>(buf[header++]);
    len |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  if (len > kMaxFrameBody) throw CodecError("implausible frame length");
  if (buf.size() - header < len) return 0;  // body still partial
  return header + static_cast<std::size_t>(len);
}

// One outgoing message, shared by every link it travels. Holds the decoded
// struct (so in-process transports can deliver without re-decoding) and a
// lazily produced, cached encoding (so byte-stream transports serialize at
// most once regardless of fan-out).
//
// Not thread-safe: a frame is built, encoded and handed to links on the
// sending thread; receivers only ever see the immutable byte copies/shared
// message, never the frame itself.
class WireFrame {
 public:
  // The message is moved into shared storage up front: SimTransport's
  // delivery events retain it past the send call without a second deep
  // copy. The encoding is cached inline; socket transports copy it into
  // each outbound link's send queue, and TcpTransport into its
  // self-delivery queue.
  explicit WireFrame(Message m)
      : msg_(std::make_shared<const Message>(std::move(m))) {}
  // A frame built from its encoding, for byte-stream transports only: it
  // has no decoded struct (msg() must not be called). The first bytes()
  // call counts as its encode, as for a frame built from a Message.
  explicit WireFrame(std::string encoded) : bytes_(std::move(encoded)) {}

  [[nodiscard]] const Message& msg() const { return *msg_; }
  [[nodiscard]] const std::shared_ptr<const Message>& shared_msg() const {
    return msg_;
  }

  // True once bytes() has produced the encoding (lets transports count
  // actual encode calls).
  [[nodiscard]] bool encoded_yet() const { return encoded_; }

  // Framed wire bytes (length-prefixed, concatenable). Encoded on first use
  // and cached; the view is valid for this frame's lifetime.
  [[nodiscard]] std::string_view bytes() const {
    if (!encoded_) {
      if (msg_) msg_->encode(&bytes_);
      encoded_ = true;
    }
    return bytes_;
  }

 private:
  std::shared_ptr<const Message> msg_;
  mutable std::string bytes_;  // filled at most once
  mutable bool encoded_ = false;
};

// Per-sender helper: stamps outgoing messages with the sender id (protocols
// leave Message::from blank; the environment owns identity) and wraps them
// into frames.
class FrameWriter {
 public:
  explicit FrameWriter(ReplicaId self) : self_(self) {}

  [[nodiscard]] WireFrame frame(Message m) const {
    // Moved into the frame's shared storage: a sender that hands its
    // message over pays no copy at all.
    m.from = self_;
    return WireFrame(std::move(m));
  }

 private:
  ReplicaId self_;
};

}  // namespace crsm
