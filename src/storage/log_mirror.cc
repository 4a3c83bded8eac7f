#include "storage/log_mirror.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "common/codec.h"
#include "common/message.h"

namespace crsm {

namespace {

constexpr char kDead = 0;
constexpr char kLive = 1;

// A record's slot in a chunk: the flag byte, then the framed WAL bytes
// (varint body length, then the body). The arena only holds bytes that
// were encoded here or validated at open, so the reads are unchecked.
struct Record {
  const char* at;  // the flag byte

  // The framed bytes' varint length header: its size and the body length.
  struct Header {
    std::size_t size = 0;
    std::size_t body = 0;
  };
  [[nodiscard]] Header header() const {
    Header h;
    for (int shift = 0;; shift += 7) {
      const auto b = static_cast<std::uint8_t>(at[1 + h.size++]);
      h.body |= static_cast<std::size_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return h;
    }
  }

  [[nodiscard]] bool live() const { return at[0] == kLive; }
  // The flag byte plus the framed bytes.
  [[nodiscard]] std::size_t size() const {
    const Header h = header();
    return 1 + h.size + h.body;
  }
  [[nodiscard]] std::string_view framed() const {
    const Header h = header();
    return {at + 1, h.size + h.body};
  }
  [[nodiscard]] std::string_view body() const {
    const Header h = header();
    return {at + 1 + h.size, h.body};
  }
  [[nodiscard]] LogType type() const { return static_cast<LogType>(body()[0]); }
  [[nodiscard]] Timestamp ts() const {
    const char* b = body().data();
    Timestamp ts;
    std::memcpy(&ts.ticks, b + 1, 8);
    std::memcpy(&ts.origin, b + 9, 4);
    return ts;
  }
  [[nodiscard]] LogRecord record() const {
    Decoder d(body());
    return decode_log_record_view(d);
  }
};

}  // namespace

LogRecord LogMirror::const_iterator::operator*() const {
  return Record{chunk_->bytes.data() + off_}.record();
}

LogType LogMirror::const_iterator::type() const {
  return Record{chunk_->bytes.data() + off_}.type();
}

Timestamp LogMirror::const_iterator::ts() const {
  return Record{chunk_->bytes.data() + off_}.ts();
}

std::string_view LogMirror::const_iterator::wal_bytes() const {
  return Record{chunk_->bytes.data() + off_}.framed();
}

LogMirror::const_iterator& LogMirror::const_iterator::operator++() {
  off_ += Record{chunk_->bytes.data() + off_}.size();
  skip_dead();
  return *this;
}

void LogMirror::const_iterator::skip_dead() {
  while (chunk_ != end_) {
    if (chunk_->live != 0 && off_ < chunk_->bytes.size()) {
      const Record s{chunk_->bytes.data() + off_};
      if (s.live()) return;
      off_ += s.size();
      continue;
    }
    ++chunk_;
    off_ = 0;
  }
  off_ = 0;  // the end iterator
}

LogMirror::Chunk& LogMirror::room_for(std::size_t n) {
  if (free_owed_) free_dead_chunks();
  if (chunks_.empty() ||
      chunks_.back().bytes.capacity() - chunks_.back().bytes.size() < n) {
    Chunk c;
    c.base = next_;
    c.bytes.reserve(std::max(kChunkBytes, n));
    held_bytes_ += c.bytes.capacity();
    chunks_.push_back(std::move(c));
  }
  return chunks_.back();
}

LogPosition LogMirror::append(const LogRecord& r) {
  const std::size_t body = log_record_size(r);
  const std::size_t n = 1 + varint_size(body) + body;
  Chunk& c = room_for(n);
  [[maybe_unused]] const char* data = c.bytes.data();
  const LogPosition pos = c.base + c.bytes.size();
  c.bytes.push_back(kLive);
  encode_framed_log_record(r, &c.bytes);
  assert(c.bytes.data() == data && "a chunk's bytes must never move");
  ++c.live;
  ++live_;
  next_ = pos + n;
  return pos;
}

LogPosition LogMirror::append_framed(std::string_view framed) {
  const std::size_t n = 1 + framed.size();
  Chunk& c = room_for(n);
  const LogPosition pos = c.base + c.bytes.size();
  c.bytes.push_back(kLive);
  c.bytes.append(framed);
  ++c.live;
  ++live_;
  next_ = pos + n;
  return pos;
}

const char* LogMirror::locate(LogPosition pos) const {
  // The last chunk starting at or before `pos`.
  const auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), pos,
      [](LogPosition p, const Chunk& c) { return p < c.base; });
  if (it != chunks_.begin()) {
    const Chunk& c = *std::prev(it);
    const LogPosition off = pos - c.base;
    if (off < c.bytes.size() && c.bytes[off] == kLive) return c.bytes.data() + off;
  }
  throw std::out_of_range("LogMirror: no live record at position " +
                          std::to_string(pos));
}

LogRecord LogMirror::at(LogPosition pos) const { return Record{locate(pos)}.record(); }

std::string_view LogMirror::wal_bytes(LogPosition pos) const {
  return Record{locate(pos)}.framed();
}

std::string_view LogMirror::record_bytes(LogPosition pos) const {
  return Record{locate(pos)}.body();
}

Timestamp LogMirror::ts_at(LogPosition pos) const { return Record{locate(pos)}.ts(); }

std::vector<LogRecord> LogMirror::to_vector() const {
  std::vector<LogRecord> out;
  out.reserve(live_);
  for (LogRecord r : *this) {
    r.cmd.payload.ensure_owned();
    out.push_back(std::move(r));
  }
  return out;
}

template <class Kill>
void LogMirror::kill_if(Kill kill) {
  for (Chunk& c : chunks_) {
    for (std::size_t off = 0; c.live != 0 && off < c.bytes.size();) {
      const Record s{c.bytes.data() + off};
      if (s.live() && kill(s.type(), s.ts())) {
        c.bytes[off] = kDead;
        --c.live;
        --live_;
      }
      off += s.size();
    }
  }
  free_dead_chunks();
}

void LogMirror::free_dead_chunks() {
  if (holds_ != 0) {
    free_owed_ = true;
    return;
  }
  free_owed_ = false;
  std::erase_if(chunks_, [this](const Chunk& c) {
    if (c.live != 0) return false;
    held_bytes_ -= c.bytes.capacity();
    return true;
  });
}

void LogMirror::truncate_prefix(Timestamp upto) {
  // Not a literal prefix: PREPAREs arrive out of timestamp order.
  kill_if([upto](LogType, const Timestamp& ts) { return ts <= upto; });
}

void LogMirror::remove_uncommitted_above(
    Timestamp bound, const std::function<bool(const Timestamp&)>& keep) {
  std::unordered_set<Timestamp, TimestampHash> committed;
  for (auto it = begin(); it != end(); ++it) {
    if (it.type() == LogType::kCommit) committed.insert(it.ts());
  }
  // COMMIT marks follow their PREPARE, so one pass in append order sees a
  // removal before the marks it takes along.
  std::unordered_set<Timestamp, TimestampHash> removed;
  kill_if([&](LogType type, const Timestamp& ts) {
    if (type == LogType::kCommit) return removed.contains(ts);
    if (ts <= bound || committed.contains(ts) || (keep && keep(ts))) return false;
    removed.insert(ts);
    return true;
  });
}

void LogMirror::truncate_to(std::size_t n) {
  if (n >= live_) return;
  std::size_t seen = 0;
  kill_if([&](LogType, const Timestamp&) { return seen++ >= n; });
}

}  // namespace crsm
