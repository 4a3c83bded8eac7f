// Packed outbound byte queue: the one send-side buffer behind FrameConn and
// TcpTransport's per-link reconnect backlog.
//
// Frames are copied in back to back, as contiguous bytes, into chunks of at
// most kChunkBytes. Chunks are allocated as bytes arrive (small first,
// doubling up to the cap) and freed as soon as every frame in them is
// written, so an idle queue holds no memory and a stalled link's backlog
// costs its frame bytes plus 4 B of length per frame — not an allocation
// per frame.
//
// The queue keeps frame boundaries. A torn write (consume() of fewer bytes
// than gather() offered) resumes at the exact unsent byte, even mid-frame
// and mid-chunk, while the written prefix of the head frame stays retained
// until that frame completes: rewind() then hands the queue back as whole
// frames from the head frame's start, which is what a reconnect must
// resend (the receiver discards a partial frame when the socket dies).
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

namespace crsm::net {

class ByteQueue {
 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;
  static constexpr std::size_t kMinChunkBytes = 1024;

  ByteQueue() = default;
  ByteQueue(ByteQueue&& o) noexcept { *this = std::move(o); }
  ByteQueue& operator=(ByteQueue&& o) noexcept;
  ByteQueue(const ByteQueue&) = delete;
  ByteQueue& operator=(const ByteQueue&) = delete;

  // Copies one frame in behind the last. Empty frames are ignored.
  void push(std::string_view frame);
  // Moves every frame of `tail` in behind ours without copying a byte
  // (chunks change owner). `tail` must have no byte written (a rewound or
  // never-sent queue) and is left empty.
  void append(ByteQueue&& tail);

  // Unsent bytes.
  [[nodiscard]] std::size_t size() const { return size_; }
  // Frames not yet completely written, a torn head frame included.
  [[nodiscard]] std::size_t frames() const { return lens_.size() - lens_head_; }
  [[nodiscard]] bool empty() const { return frames() == 0; }

  // Points up to `max_iov` iovecs at the first `max_bytes` unsent bytes, in
  // order; returns how many it filled. Valid until the next mutation.
  std::size_t gather(iovec* iov, std::size_t max_iov,
                     std::size_t max_bytes) const;
  // Marks the first `n` unsent bytes written (n <= size()). Returns the
  // number of frames this completed; their chunks are freed.
  std::size_t consume(std::size_t n);
  // Forgets what was written of the head frame: the queue starts at a
  // frame boundary again and size() counts the head frame whole.
  void rewind();
  // Drops the head frame, which must have no byte written.
  void pop_front();
  // Drops everything and frees all memory.
  void clear();

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    std::uint32_t cap = 0;
    std::uint32_t lo = 0;  // first retained byte
    std::uint32_t hi = 0;  // one past the last byte pushed
  };

  // Releases `n` bytes from the front of the retained stream.
  void drop(std::size_t n);
  // Frees fully released chunks and, once no frame is left, everything.
  void trim();

  // Both lists are vectors popped by advancing a head index; the popped
  // prefix is compacted away once it outgrows the live part, so a queue
  // that never drains fully stays proportional to its contents.
  std::vector<Chunk> chunks_;
  std::size_t chunks_head_ = 0;
  std::vector<std::uint32_t> lens_;  // frame lengths, head first
  std::size_t lens_head_ = 0;
  std::size_t head_sent_ = 0;  // bytes of the head frame already written
  std::size_t size_ = 0;
};

}  // namespace crsm::net
