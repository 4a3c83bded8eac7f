#include "net/byte_queue.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace crsm::net {

namespace {
// Erases a vector-FIFO's popped prefix [0, head) once it is sizeable and at
// least half the vector: amortized O(1) per pop.
template <typename T>
void compact(std::vector<T>& v, std::size_t& head) {
  if (head >= 16 && 2 * head >= v.size()) {
    v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}
}  // namespace

ByteQueue& ByteQueue::operator=(ByteQueue&& o) noexcept {
  if (this != &o) {
    chunks_ = std::exchange(o.chunks_, {});
    chunks_head_ = std::exchange(o.chunks_head_, 0);
    lens_ = std::exchange(o.lens_, {});
    lens_head_ = std::exchange(o.lens_head_, 0);
    head_sent_ = std::exchange(o.head_sent_, 0);
    size_ = std::exchange(o.size_, 0);
  }
  return *this;
}

void ByteQueue::push(std::string_view frame) {
  if (frame.empty()) return;
  lens_.push_back(static_cast<std::uint32_t>(frame.size()));
  size_ += frame.size();
  while (!frame.empty()) {
    if (chunks_.empty() || chunks_.back().hi == chunks_.back().cap) {
      // Start small and double: a connection carrying a few replies per
      // pass allocates about 1 KiB, while a backlog packs full chunks.
      const std::size_t prev = chunks_.empty() ? 0 : chunks_.back().cap;
      const std::size_t cap = std::min(
          kChunkBytes, std::max({frame.size(), 2 * prev, kMinChunkBytes}));
      chunks_.push_back(Chunk{std::make_unique_for_overwrite<char[]>(cap),
                              static_cast<std::uint32_t>(cap), 0, 0});
    }
    Chunk& c = chunks_.back();
    const std::size_t n = std::min<std::size_t>(frame.size(), c.cap - c.hi);
    std::memcpy(c.data.get() + c.hi, frame.data(), n);
    c.hi += static_cast<std::uint32_t>(n);
    frame.remove_prefix(n);
  }
}

void ByteQueue::append(ByteQueue&& tail) {
  assert(tail.head_sent_ == 0);
  if (tail.empty()) return;
  if (empty()) {
    *this = std::move(tail);
    return;
  }
  for (std::size_t i = tail.chunks_head_; i < tail.chunks_.size(); ++i) {
    chunks_.push_back(std::move(tail.chunks_[i]));
  }
  lens_.insert(lens_.end(),
               tail.lens_.begin() + static_cast<std::ptrdiff_t>(tail.lens_head_),
               tail.lens_.end());
  size_ += tail.size_;
  tail.clear();
}

std::size_t ByteQueue::gather(iovec* iov, std::size_t max_iov,
                              std::size_t max_bytes) const {
  std::size_t n = 0;
  std::size_t skip = head_sent_;  // the head frame's written prefix
  for (std::size_t i = chunks_head_;
       i < chunks_.size() && n < max_iov && max_bytes > 0; ++i) {
    const Chunk& c = chunks_[i];
    const std::size_t len = c.hi - c.lo;
    if (skip >= len) {
      skip -= len;
      continue;
    }
    const std::size_t take = std::min(len - skip, max_bytes);
    iov[n].iov_base = c.data.get() + c.lo + skip;
    iov[n].iov_len = take;
    ++n;
    max_bytes -= take;
    skip = 0;
  }
  return n;
}

std::size_t ByteQueue::consume(std::size_t n) {
  size_ -= n;
  head_sent_ += n;
  std::size_t done = 0;
  while (lens_head_ < lens_.size() && head_sent_ >= lens_[lens_head_]) {
    const std::size_t len = lens_[lens_head_++];
    head_sent_ -= len;
    drop(len);
    ++done;
  }
  trim();
  return done;
}

void ByteQueue::rewind() {
  size_ += head_sent_;
  head_sent_ = 0;
}

void ByteQueue::pop_front() {
  assert(head_sent_ == 0 && !empty());
  const std::size_t len = lens_[lens_head_++];
  size_ -= len;
  drop(len);
  trim();
}

void ByteQueue::clear() { *this = ByteQueue(); }

void ByteQueue::drop(std::size_t n) {
  while (n > 0) {
    Chunk& c = chunks_[chunks_head_];
    const std::size_t k = std::min<std::size_t>(n, c.hi - c.lo);
    c.lo += static_cast<std::uint32_t>(k);
    n -= k;
    // A released chunk goes unless it is the tail with room left (a
    // spliced-in queue's chunks follow a tail that may not be full).
    if (c.lo == c.hi && (c.hi == c.cap || chunks_head_ + 1 < chunks_.size())) {
      c.data.reset();
      ++chunks_head_;
    }
  }
}

void ByteQueue::trim() {
  if (empty()) {
    clear();  // idle: hold no memory
    return;
  }
  compact(chunks_, chunks_head_);
  compact(lens_, lens_head_);
}

}  // namespace crsm::net
