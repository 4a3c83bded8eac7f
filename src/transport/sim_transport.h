// Simulated wide-area transport with non-uniform latencies.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/message.h"
#include "common/types.h"
#include "common/wire_frame.h"
#include "sim/simulator.h"
#include "transport/transport.h"
#include "util/rng.h"
#include "util/topology.h"

namespace crsm {

// Reliable, per-link FIFO transport over a LatencyMatrix, with optional
// symmetric jitter, crash and partition injection, and traffic accounting
// (used to verify the paper's message-complexity claims).
//
// For deterministic simulation testing (src/dst) the transport additionally
// supports one-way partitions, probabilistic message drop and duplication,
// and a global delay surcharge ("delay spike"). All fault knobs preserve
// per-link FIFO order and consume randomness only while enabled, so runs
// with the knobs off are byte-identical to runs of older builds.
//
// Delivery hands the frame's shared decoded Message to the destination
// handler — one fan-out shares a single Message and (when byte counting is
// on) a single encoding across all N links.
//
// Each link keeps its in-flight messages in a FIFO queue, and only the head
// of a busy link sits in the Simulator's event queue. The head is scheduled
// under the tie-break rank reserved when it was sent (Simulator::
// reserve_seq), and arrivals on a link strictly increase, so every delivery
// runs at exactly the (time, rank) position a per-message event would have
// had: the global event order is that of one event per message.
//
// Replica ids are indices into the latency matrix.
class SimTransport final {
 public:
  using Handler = std::function<void(const Message&)>;

  struct Options {
    double jitter_ms = 0.0;  // uniform [0, jitter_ms) added per message
    bool count_bytes = false;
  };

  SimTransport(Simulator& sim, LatencyMatrix matrix, Rng rng, Options opt);
  SimTransport(Simulator& sim, LatencyMatrix matrix, Rng rng)
      : SimTransport(sim, std::move(matrix), rng, Options{}) {}

  void register_replica(ReplicaId id, Handler handler);

  // Sends `f` from -> to. Drops it if either endpoint is crashed (at send or
  // delivery time) or the link is partitioned. Delivery preserves FIFO order
  // per (from, to) link even under jitter.
  void send(ReplicaId from, ReplicaId to, const WireFrame& f);

  // Fan-out: hands the same frame to every destination link in order. The
  // frame is serialized at most once (WireFrame caches its encoding).
  void multicast(ReplicaId from, const std::vector<ReplicaId>& tos,
                 const WireFrame& f) {
    for (ReplicaId to : tos) send(from, to, f);
  }

  // Convenience for tests and non-fan-out callers.
  void send(ReplicaId from, ReplicaId to, Message m) {
    send(from, to, WireFrame(std::move(m)));
  }

  void crash(ReplicaId id);
  void recover(ReplicaId id);
  [[nodiscard]] bool crashed(ReplicaId id) const;

  // Blocks/unblocks both directions between a and b.
  void set_partitioned(ReplicaId a, ReplicaId b, bool blocked);

  // One-way partition: blocks/unblocks only the from -> to direction.
  // Messages sent while blocked are dropped (not delayed), like a real
  // asymmetric routing failure.
  void set_link_blocked(ReplicaId from, ReplicaId to, bool blocked);
  [[nodiscard]] bool link_blocked(ReplicaId from, ReplicaId to) const;

  // Link outage: while set, messages on the from -> to link are *queued*;
  // ending the outage flushes the backlog in FIFO order. This models what
  // the real stack (TcpTransport's reconnect backlogs, PR 3) gives a
  // transient partition: delay and burstiness, but no loss. Protocols whose
  // safety argument assumes reliable FIFO channels (Clock-RSM's stability
  // rule in particular) are partition-tolerant under outages but NOT under
  // blocked links — the DST runner injects partitions as outages for
  // exactly that reason, and dst/README in docs/TESTING.md shows the
  // commit-around-the-hole divergence that blocked links cause.
  void set_link_outage(ReplicaId from, ReplicaId to, bool outage);
  // Both directions between a and b.
  void set_outage(ReplicaId a, ReplicaId b, bool outage);

  // Probabilistic faults on non-self links. Drop loses the message entirely;
  // duplicate delivers a second copy immediately after the first (FIFO order
  // per link is preserved either way).
  void set_drop_prob(double p) { drop_prob_ = p; }
  void set_dup_prob(double p) { dup_prob_ = p; }

  // Adds `extra_us` to the one-way delay of every non-self message sent from
  // now on (a congestion spike). In-flight messages keep their arrival time.
  void set_extra_delay_us(Tick extra_us) { extra_delay_us_ = extra_us; }

  // Heals every injected fault: link blocks (one- and two-way), drop/dup
  // probabilities and the delay surcharge. Crashed endpoints stay crashed.
  void clear_faults();

  [[nodiscard]] TransportStats stats() const { return stats_; }
  [[nodiscard]] std::uint64_t messages_sent() const { return stats_.messages_sent; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return stats_.messages_delivered; }
  [[nodiscard]] std::uint64_t messages_dropped() const { return stats_.messages_dropped; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return stats_.bytes_sent; }
  [[nodiscard]] std::uint64_t encode_calls() const { return stats_.encode_calls; }

  [[nodiscard]] const LatencyMatrix& matrix() const { return matrix_; }

 private:
  // A message on the wire: its arrival time and the Simulator rank
  // reserved when it was sent.
  struct InFlight {
    Tick arrival = 0;
    std::uint64_t seq = 0;
    std::shared_ptr<const Message> msg;
  };
  struct LinkState {
    Tick last_arrival = 0;
    bool blocked = false;
    bool outage = false;
    // Sent and not yet delivered, in send order; the front one is scheduled.
    std::deque<InFlight> in_flight;
    // Messages queued while the link is in outage, flushed FIFO on heal.
    std::vector<std::shared_ptr<const Message>> backlog;
  };

  [[nodiscard]] std::size_t link_index(ReplicaId from, ReplicaId to) const;
  // Puts one message on a live link, preserving per-link FIFO order.
  void deliver(ReplicaId from, ReplicaId to, std::shared_ptr<const Message> m);
  // Schedules the front of link `idx`'s in-flight queue.
  void schedule_head(std::size_t idx);
  // The delivery event: hands the front message to its destination.
  void deliver_head(std::size_t idx);

  Simulator& sim_;
  LatencyMatrix matrix_;
  Rng rng_;
  Options opt_;
  std::vector<Handler> handlers_;
  std::vector<bool> crashed_;
  std::vector<LinkState> links_;
  double drop_prob_ = 0.0;
  double dup_prob_ = 0.0;
  Tick extra_delay_us_ = 0;
  TransportStats stats_;
};

}  // namespace crsm
