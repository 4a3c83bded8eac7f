// The open-loop load generator: one thread, one pipelined connection per
// replica, Poisson arrivals spread round-robin over the connections.
//
// Each request is timed from its due time on the arrival schedule, not from
// when it was sent, so a stall on either side shows up in every request it
// delays (coordinated omission), and the gap between due and sent is
// reported as the generator's own lateness. After the fixed-rate window the
// generator switches to a closed loop that keeps 256 requests outstanding on
// every connection, then drains.
//
// Requests due for a dead or retired replica fail over to the next live
// one; requests lost with a dying connection are re-sent as new requests
// (new client and sequence number) that keep the original due time. The
// orchestration thread retires a replica before killing it, and replaces
// its connection through hand_over() after restarting it.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "checker.h"
#include "common/message.h"
#include "net/frame_conn.h"
#include "net/socket.h"

namespace crsm_bench {

struct GenPlan {
  std::int64_t epoch_ns = 0;  // absolute monotonic time of t = 0
  // Phase boundaries, relative to the epoch: warmup, fixed-rate window, a
  // quiet gap, capacity window; the drain follows the capacity window.
  std::int64_t fixed_start_ns = 0;
  std::int64_t fixed_end_ns = 0;
  std::int64_t capacity_start_ns = 0;
  std::int64_t capacity_end_ns = 0;
  double rate = 0;  // open-loop arrivals per second
  double read_fraction = 0;
  std::uint64_t seed = 1;
};

struct GenStats {
  // Generator-thread CPU and wall time spent in each measured window.
  std::int64_t cpu_fixed_ns = 0;
  std::int64_t wall_fixed_ns = 0;
  std::int64_t cpu_capacity_ns = 0;
  std::int64_t wall_capacity_ns = 0;
  std::uint64_t failovers = 0;  // requests due for a dead replica
  std::uint64_t resends = 0;    // requests lost with a connection
  // Per replica: relative time of the first reply on a handed-over
  // connection (-1 if none).
  std::vector<std::int64_t> first_reply_after_handover_ns;
};

// The 64-byte KV put payload for `key`, carrying `id` in its value.
[[nodiscard]] std::string put_payload(std::uint16_t key, std::uint64_t id);
[[nodiscard]] std::string get_payload(std::uint16_t key);
[[nodiscard]] std::string key_name(std::uint16_t key);

class Generator {
 public:
  // `conns[r]` is a connected client socket to replica r whose hello
  // exchange is complete.
  Generator(GenPlan plan, std::vector<crsm::net::Socket> conns);
  ~Generator();

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void start();
  // Returns once the drain has finished: every request answered, or
  // marked timed out.
  void join();

  // Thread-safe: replaces replica r's connection (a restarted replica).
  void hand_over(std::size_t replica, crsm::net::Socket sock);

  // Thread-safe: sends nothing more to replica r until a hand_over(), and
  // waits until none of its requests is outstanding or `deadline_ns`
  // (monotonic) passes. Returns whether r went quiet.
  [[nodiscard]] bool retire(std::size_t replica, std::int64_t deadline_ns);

  // After join(): reads every key back through every live replica. Values
  // of replicas whose connection is gone stay empty.
  [[nodiscard]] ReadBack read_back(int timeout_ms);

  [[nodiscard]] const History& history() const { return hist_; }
  [[nodiscard]] const GenStats& stats() const { return stats_; }
  [[nodiscard]] std::int64_t rel_now() const {
    return mono_ns() - plan_.epoch_ns;
  }

 private:
  struct Conn {
    crsm::net::Socket sock;
    crsm::net::FrameAssembler in;
    std::string out;
    std::size_t out_off = 0;
    std::uint64_t bytes_queued = 0;
    std::uint64_t bytes_written = 0;
    // (op index, stream offset just past its frame) not yet fully written.
    std::deque<std::pair<std::size_t, std::uint64_t>> unsent;
    std::uint32_t slot = 0;
    bool alive = false;
  };

  void run();
  std::size_t new_op(OpKind kind, std::uint16_t key, std::int64_t due,
                     Phase phase, bool resend);
  void send_op(std::size_t idx, std::size_t replica);
  // Whether requests may be sent to replica r: connected and not retired.
  [[nodiscard]] bool usable(std::size_t replica) const;
  // The next usable replica at or after `from`, or -1 when there is none.
  [[nodiscard]] int live_from(std::size_t from) const;
  void flush(std::size_t replica, std::int64_t now);
  void read_conn(std::size_t replica, std::int64_t now);
  void on_reply(const crsm::Message& m, std::int64_t now);
  void conn_died(std::size_t replica);
  void adopt_handovers();
  // Publishes quiet_ for each retired replica with nothing outstanding.
  void note_quiet();
  void scan_timeouts(std::int64_t now);
  void resend_lost();
  // One poll over every live connection: writes pending output, reads
  // replies. Waits at most `timeout_ns`.
  void poll_once(std::int64_t timeout_ns);
  [[nodiscard]] std::uint32_t open_slot();

  GenPlan plan_;
  std::vector<Conn> conns_;
  History hist_;
  GenStats stats_;
  // slot -> op index of each seq (seq = position + 1).
  std::vector<std::vector<std::uint32_t>> slot_ops_;
  std::vector<std::uint32_t> slot_outstanding_;
  std::deque<std::size_t> lost_;  // kLost ops awaiting a resend
  std::size_t outstanding_ = 0;
  std::size_t first_open_ = 0;  // no op below this index is pending
  std::size_t rr_ = 0;
  // Per replica: a handed-over connection has not yet seen a reply.
  std::vector<bool> awaiting_first_reply_;

  std::mutex handover_mu_;
  std::vector<std::pair<std::size_t, crsm::net::Socket>> handovers_;
  std::atomic<bool> handover_ready_{false};
  // Per replica: set by retire(); `quiet_` is set by the generator thread
  // once it has seen `retired_` and nothing sent to the replica is pending.
  std::vector<std::atomic<bool>> retired_;
  std::vector<std::atomic<bool>> quiet_;

  std::thread thread_;
};

}  // namespace crsm_bench
