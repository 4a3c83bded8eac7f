// Compact in-memory image of a command log (Section III-A, hard state `Log`).
#pragma once

#include <cstddef>
#include <functional>
#include <iterator>
#include <vector>

#include "common/command.h"
#include "common/log_record.h"
#include "common/types.h"

namespace crsm {

// The records of a command log, in append order, at 16 bytes per record
// plus one Command per PREPARE entry.
//
// Between checkpoints a replica holds a PREPARE entry and a COMMIT mark for
// every command, so the per-record cost is the checkpoint window's cost.
// The mirror keeps each record as a bare {timestamp, type} entry and the
// commands of PREPARE entries in a parallel array, in the same order: a
// COMMIT mark costs 16 bytes, a PREPARE 16 + sizeof(Command) and its
// (shared) payload block.
//
// Iteration yields LogRecord values, so `for (const LogRecord& r : mirror)`
// reads like a loop over the old record vector.
class LogMirror {
 public:
  struct Entry {
    Tick ticks = 0;
    ReplicaId origin = kNoReplica;
    LogType type = LogType::kPrepare;

    [[nodiscard]] Timestamp ts() const { return {ticks, origin}; }
  };
  static_assert(sizeof(Entry) == 16);

  class const_iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;  // yields values
    using value_type = LogRecord;
    using difference_type = std::ptrdiff_t;
    using reference = LogRecord;

    const_iterator() = default;

    LogRecord operator*() const {
      if (entry_->type == LogType::kCommit) return LogRecord::commit(entry_->ts());
      return LogRecord::prepare(entry_->ts(), *cmd_);
    }
    const_iterator& operator++() {
      if (entry_->type == LogType::kPrepare) ++cmd_;
      ++entry_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.entry_ == b.entry_;
    }

   private:
    friend class LogMirror;
    const_iterator(const Entry* entry, const Command* cmd) : entry_(entry), cmd_(cmd) {}

    const Entry* entry_ = nullptr;
    const Command* cmd_ = nullptr;  // the next PREPARE entry's command
  };

  void append(const LogRecord& r);

  [[nodiscard]] const_iterator begin() const {
    return {entries_.data(), commands_.data()};
  }
  [[nodiscard]] const_iterator end() const {
    return {entries_.data() + entries_.size(), commands_.data() + commands_.size()};
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::vector<LogRecord> to_vector() const { return {begin(), end()}; }

  // Bytes the mirror holds for its records: entries, commands and their
  // payload sizes (shared payload blocks are counted once per record).
  [[nodiscard]] std::size_t bytes() const {
    return entries_.size() * sizeof(Entry) + commands_.size() * sizeof(Command) +
           payload_bytes_;
  }

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
  // Drops every record whose entry satisfies `drop`, keeping append order.
  template <class Drop>
  void erase_if(Drop drop);

  std::vector<Entry> entries_;
  std::vector<Command> commands_;  // the kPrepare entries' commands, in order
  std::size_t payload_bytes_ = 0;
};

}  // namespace crsm
