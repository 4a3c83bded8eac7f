#include "transport/sim_transport.h"

#include <stdexcept>
#include <utility>

namespace crsm {

SimTransport::SimTransport(Simulator& sim, LatencyMatrix matrix, Rng rng, Options opt)
    : sim_(sim),
      matrix_(std::move(matrix)),
      rng_(rng),
      opt_(opt),
      handlers_(matrix_.size()),
      crashed_(matrix_.size(), false),
      links_(matrix_.size() * matrix_.size()) {}

void SimTransport::register_replica(ReplicaId id, Handler handler) {
  if (id >= handlers_.size()) throw std::out_of_range("register_replica");
  handlers_[id] = std::move(handler);
}

std::size_t SimTransport::link_index(ReplicaId from, ReplicaId to) const {
  return static_cast<std::size_t>(from) * matrix_.size() + to;
}

void SimTransport::send(ReplicaId from, ReplicaId to, const WireFrame& f) {
  if (from >= handlers_.size() || to >= handlers_.size()) {
    throw std::out_of_range("SimTransport::send");
  }
  ++stats_.messages_sent;
  if (opt_.count_bytes) {
    // Fan-out sends share the frame's cached encoding: one encode call, one
    // byte count per destination (matching what each link would carry).
    if (!f.encoded_yet()) ++stats_.encode_calls;
    stats_.bytes_sent += f.bytes().size();
  }

  LinkState& link = links_[link_index(from, to)];
  if (crashed_[from] || crashed_[to] || link.blocked) {
    ++stats_.messages_dropped;
    return;
  }
  if (link.outage) {
    // The link is down but the stack retransmits: queue for the heal.
    link.backlog.push_back(f.shared_msg());
    return;
  }
  // Probabilistic faults never touch self-delivery: a replica's loopback
  // models its local event queue, not a network link.
  if (from != to && drop_prob_ > 0.0 && rng_.bernoulli(drop_prob_)) {
    ++stats_.messages_dropped;
    ++stats_.messages_fault_dropped;
    return;
  }

  const bool duplicate =
      from != to && dup_prob_ > 0.0 && rng_.bernoulli(dup_prob_);
  if (duplicate) ++stats_.messages_duplicated;
  deliver(from, to, f.shared_msg());
  if (duplicate) deliver(from, to, f.shared_msg());
}

void SimTransport::deliver(ReplicaId from, ReplicaId to,
                           std::shared_ptr<const Message> m) {
  const std::size_t idx = link_index(from, to);
  LinkState& link = links_[idx];
  Tick arrival = sim_.now() + matrix_.oneway_us(from, to);
  if (from != to) arrival += extra_delay_us_;
  if (opt_.jitter_ms > 0.0 && from != to) {
    arrival += ms_to_us(rng_.uniform(0.0, opt_.jitter_ms));
  }
  // FIFO per link: never deliver before an earlier message on the same
  // link; a duplicate arrives immediately after its original.
  if (arrival <= link.last_arrival) arrival = link.last_arrival + 1;
  link.last_arrival = arrival;

  // All destinations of a multicast share one immutable Message. The rank
  // is taken now, as a per-message event would take it at send time.
  link.in_flight.push_back(InFlight{arrival, sim_.reserve_seq(), std::move(m)});
  if (link.in_flight.size() == 1) schedule_head(idx);
}

void SimTransport::schedule_head(std::size_t idx) {
  const InFlight& head = links_[idx].in_flight.front();
  // Two words of capture: std::function stores it inline, no allocation.
  sim_.at_seq(head.arrival, head.seq, [this, idx] { deliver_head(idx); });
}

void SimTransport::deliver_head(std::size_t idx) {
  LinkState& link = links_[idx];
  const std::shared_ptr<const Message> m = std::move(link.in_flight.front().msg);
  link.in_flight.pop_front();
  // The successor is scheduled before the handler runs, so anything the
  // handler sends on this link queues behind it.
  if (!link.in_flight.empty()) schedule_head(idx);
  const auto to = static_cast<ReplicaId>(idx % matrix_.size());
  if (crashed_[to] || !handlers_[to]) {
    ++stats_.messages_dropped;
    return;
  }
  ++stats_.messages_delivered;
  handlers_[to](*m);
}

void SimTransport::crash(ReplicaId id) {
  if (id >= crashed_.size()) throw std::out_of_range("crash");
  crashed_[id] = true;
  // The process died: its own retransmission backlogs die with it. Peers'
  // backlogs *to* the crashed replica survive (their stacks keep retrying),
  // though delivery still checks liveness at arrival time.
  for (std::size_t to = 0; to < crashed_.size(); ++to) {
    links_[link_index(id, static_cast<ReplicaId>(to))].backlog.clear();
  }
}

void SimTransport::recover(ReplicaId id) {
  if (id >= crashed_.size()) throw std::out_of_range("recover");
  crashed_[id] = false;
}

bool SimTransport::crashed(ReplicaId id) const {
  if (id >= crashed_.size()) throw std::out_of_range("crashed");
  return crashed_[id];
}

void SimTransport::set_partitioned(ReplicaId a, ReplicaId b, bool blocked) {
  set_link_blocked(a, b, blocked);
  set_link_blocked(b, a, blocked);
}

void SimTransport::set_link_blocked(ReplicaId from, ReplicaId to, bool blocked) {
  if (from >= handlers_.size() || to >= handlers_.size()) {
    throw std::out_of_range("set_link_blocked");
  }
  links_[link_index(from, to)].blocked = blocked;
}

bool SimTransport::link_blocked(ReplicaId from, ReplicaId to) const {
  if (from >= handlers_.size() || to >= handlers_.size()) {
    throw std::out_of_range("link_blocked");
  }
  return links_[link_index(from, to)].blocked;
}

void SimTransport::set_link_outage(ReplicaId from, ReplicaId to, bool outage) {
  if (from >= handlers_.size() || to >= handlers_.size()) {
    throw std::out_of_range("set_link_outage");
  }
  LinkState& link = links_[link_index(from, to)];
  if (link.outage == outage) return;
  link.outage = outage;
  if (!outage) {
    // Heal: flush the retransmission backlog, in order, ahead of anything
    // sent from now on (deliver()'s FIFO clamp chains the arrivals).
    std::vector<std::shared_ptr<const Message>> backlog;
    backlog.swap(link.backlog);
    for (auto& m : backlog) deliver(from, to, std::move(m));
  }
}

void SimTransport::set_outage(ReplicaId a, ReplicaId b, bool outage) {
  set_link_outage(a, b, outage);
  set_link_outage(b, a, outage);
}

void SimTransport::clear_faults() {
  drop_prob_ = 0.0;
  dup_prob_ = 0.0;
  extra_delay_us_ = 0;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    links_[i].blocked = false;
    if (links_[i].outage) {
      const ReplicaId from = static_cast<ReplicaId>(i / matrix_.size());
      const ReplicaId to = static_cast<ReplicaId>(i % matrix_.size());
      set_link_outage(from, to, false);
    }
  }
}

}  // namespace crsm
