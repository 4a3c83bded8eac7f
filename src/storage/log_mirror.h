// Compact in-memory image of a command log (Section III-A, hard state `Log`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/log_record.h"
#include "common/types.h"

namespace crsm {

// Where a record lives in a LogMirror: the offset of its first byte in the
// stream of every byte the mirror was ever given. Stable while the record
// lives, and never reused.
using LogPosition = std::uint64_t;

// The records of a command log, in append order, as one copy of their WAL
// bytes.
//
// Each record is one flag byte (live or dead) followed by the exact framed
// bytes FileLog writes for it (encode_framed_log_record), packed into
// 64 KiB chunks: a PREPARE with a 64 B payload costs 88 bytes, a COMMIT
// mark 15, and no record has an allocation of its own. A record larger
// than a chunk gets a chunk of its own. An empty log allocates nothing.
//
// Removals flag records dead in place, and a chunk is freed once none of
// its records is live, so a record's position never changes while the
// record lives. Clock-RSM's pending entries name their commands by
// position instead of holding a second copy.
//
// Iteration yields LogRecord values whose payloads view the arena (Bytes
// views, see common/bytes.h): `for (const LogRecord& r : mirror)` reads
// like a loop over a record vector. A view is valid until its record's
// chunk is freed; copying the record or its command owns the bytes. While
// a Hold is alive no chunk is freed.
class LogMirror {
 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;

 private:
  struct Chunk {
    LogPosition base = 0;  // position of bytes[0]
    // Records, back to back. Reserved up front and never grown past its
    // capacity, so the bytes never move.
    std::string bytes;
    std::size_t live = 0;  // records not flagged dead
  };

 public:
  class const_iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;  // yields values
    using value_type = LogRecord;
    using difference_type = std::ptrdiff_t;
    using reference = LogRecord;

    const_iterator() = default;

    // The record, its payload viewing the arena.
    LogRecord operator*() const;
    const_iterator& operator++();
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.chunk_ == b.chunk_ && a.off_ == b.off_;
    }

    // The record's position, header fields and framed WAL bytes, read
    // without decoding its command.
    [[nodiscard]] LogPosition position() const { return chunk_->base + off_; }
    [[nodiscard]] LogType type() const;
    [[nodiscard]] Timestamp ts() const;
    [[nodiscard]] std::string_view wal_bytes() const;

   private:
    friend class LogMirror;
    const_iterator(const Chunk* chunk, const Chunk* end, std::size_t off)
        : chunk_(chunk), end_(end), off_(off) {
      skip_dead();
    }
    // Moves forward to the next live record (or the end).
    void skip_dead();

    const Chunk* chunk_ = nullptr;
    const Chunk* end_ = nullptr;
    std::size_t off_ = 0;
  };

  // Defers freeing chunks while alive: views read from the mirror stay
  // valid across removals (a checkpoint truncation while a command read
  // from the log is being delivered). Chunks emptied meanwhile are freed
  // by the first change to the mirror after the last hold ends. Holding
  // changes no record, so a hold takes a const mirror.
  class [[nodiscard]] Hold {
   public:
    explicit Hold(const LogMirror& mirror) : mirror_(mirror) { ++mirror_.holds_; }
    ~Hold() { --mirror_.holds_; }
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;

   private:
    const LogMirror& mirror_;
  };

  LogMirror() = default;
  // Chunks must keep their reserved capacity, which a string copy drops.
  LogMirror(const LogMirror&) = delete;
  LogMirror& operator=(const LogMirror&) = delete;
  LogMirror(LogMirror&&) noexcept = default;
  LogMirror& operator=(LogMirror&&) noexcept = default;

  LogPosition append(const LogRecord& r);
  // Appends one record given as its framed WAL bytes, which the caller has
  // validated (FileLog replaying its file).
  LogPosition append_framed(std::string_view framed);

  // The live record at `pos`, its payload viewing the arena; throws
  // std::out_of_range when no live record starts there.
  [[nodiscard]] LogRecord at(LogPosition pos) const;
  // Its framed WAL bytes.
  [[nodiscard]] std::string_view wal_bytes(LogPosition pos) const;
  // Its encode_log_record bytes: the WAL bytes without the frame's length.
  [[nodiscard]] std::string_view record_bytes(LogPosition pos) const;
  // Its timestamp, read without decoding the record.
  [[nodiscard]] Timestamp ts_at(LogPosition pos) const;

  [[nodiscard]] const_iterator begin() const {
    return {chunks_.data(), chunks_.data() + chunks_.size(), 0};
  }
  [[nodiscard]] const_iterator end() const {
    const Chunk* e = chunks_.data() + chunks_.size();
    return {e, e, 0};
  }
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  // Owned copies of the records, in order.
  [[nodiscard]] std::vector<LogRecord> to_vector() const;

  // Arena bytes held: the reserved size of every chunk.
  [[nodiscard]] std::size_t bytes() const { return held_bytes_; }

  // Removes every record with ts <= upto.
  void truncate_prefix(Timestamp upto);
  // Removes every kPrepare record with ts > bound that has no COMMIT mark
  // and whose timestamp does not satisfy `keep` (null keeps none), and every
  // kCommit mark for a removed prepare.
  void remove_uncommitted_above(Timestamp bound,
                                const std::function<bool(const Timestamp&)>& keep);
  // Keeps the first `n` records and drops the rest.
  void truncate_to(std::size_t n);

 private:
  // The tail chunk, with room for `n` more bytes.
  Chunk& room_for(std::size_t n);
  // Flag byte of a record's slot, then its framed bytes.
  [[nodiscard]] const char* locate(LogPosition pos) const;
  // Flags dead every live record for which kill(type, ts) holds, visiting
  // them in append order, then frees emptied chunks.
  template <class Kill>
  void kill_if(Kill kill);
  // Frees every chunk without a live record, unless a Hold defers it.
  void free_dead_chunks();

  std::vector<Chunk> chunks_;  // ascending base
  LogPosition next_ = 0;       // position of the next appended record
  std::size_t live_ = 0;
  std::size_t held_bytes_ = 0;
  bool free_owed_ = false;  // a hold deferred a free
  mutable std::size_t holds_ = 0;
};

}  // namespace crsm
