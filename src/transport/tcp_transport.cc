#include "transport/tcp_transport.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace crsm {

TcpTransport::TcpTransport(net::EventLoop& loop, ReplicaId self, Options opt)
    : loop_(loop),
      self_(self),
      opt_(std::move(opt)),
      acceptor_(loop, opt_.listen_host, opt_.listen_port) {}

TcpTransport::~TcpTransport() { shutdown(); }

std::unique_ptr<net::FrameConn> TcpTransport::make_conn(net::Socket sock) {
  return std::make_unique<net::FrameConn>(loop_, std::move(sock),
                                          &wire_metrics_);
}

void TcpTransport::mark_dirty(net::FrameConn* c) {
  if (c == nullptr || c->closed()) return;
  if (!c->flush_queued()) {
    c->set_flush_queued(true);
    dirty_.push_back(c);
  }
  // Budget guard: a conn that crossed max_coalesce_bytes mid-pass flushes
  // now instead of letting one pass accumulate unbounded wire data. It
  // stays on the dirty list for the pass-end flush of whatever remains. At
  // a budget of 0 every frame flushes here, one sendmsg per frame. The
  // fence overrides the budget: held frames wait for the pass-end flush.
  if (!fenced_ && c->pending_bytes() >= opt_.max_coalesce_bytes) {
    (void)c->flush();
  }
}

void TcpTransport::flush_pass() {
  if (fenced_ || dirty_.empty()) return;
  std::vector<net::FrameConn*> dirty;
  dirty.swap(dirty_);
  for (net::FrameConn* c : dirty) {
    c->set_flush_queued(false);
    // A flush failure fails the conn and runs its close handler inline;
    // bury() defers destruction past this loop, so later entries are at
    // worst closed, never dangling.
    if (!c->closed()) (void)c->flush();
  }
}

void TcpTransport::start(std::vector<TcpPeer> peers) {
  if (started_) return;
  started_ = true;
  peers_.resize(peers.size());
  for (std::size_t i = 0; i < peers.size(); ++i) peers_[i].addr = peers[i];
  // This transport owns the loop's wire-flush slot for its lifetime (one
  // transport per loop); shutdown() releases it.
  loop_.set_wire_flush_hook([this] { flush_pass(); });
  acceptor_.start([this](net::Socket&& s) { on_accept(std::move(s)); });
  // Deterministic dial direction — the lower id dials the higher — gives
  // each unordered pair exactly one socket regardless of startup order.
  // Lower ids are dialed too, but only to wake them: if we restarted, their
  // links to us are down and in reconnect backoff.
  for (ReplicaId j = 0; j < peers_.size(); ++j) {
    if (j != self_) dial(j);
  }
}

void TcpTransport::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  if (started_) loop_.set_wire_flush_hook(nullptr);
  dirty_.clear();
  acceptor_.stop();
  routes_.clear();
  for (PeerLink& link : peers_) {
    if (link.connector) link.connector->stop();
    cancel_redial(link);
    link.conn.reset();
    link.wake.reset();
    link.backlog.clear();
  }
  pending_.clear();
  clients_.clear();
  graveyard_.clear();
  connected_count_.store(0, std::memory_order_relaxed);
}

void TcpTransport::dial(ReplicaId to) {
  PeerLink& link = peers_[to];
  if (!link.connector) {
    link.connector = std::make_unique<net::Connector>(
        loop_, link.addr.host, link.addr.port, opt_.reconnect);
  }
  link.connector->start([this, to](net::Socket&& s) {
    if (to > self_) {
      adopt_peer_conn(to, make_conn(std::move(s)), /*needs_start=*/true);
    } else {
      send_wake(to, make_conn(std::move(s)));
    }
  });
}

void TcpTransport::schedule_redial(ReplicaId to) {
  PeerLink& link = peers_[to];
  link.redial_delay_us = std::clamp<std::uint64_t>(
      link.redial_delay_us * 2, opt_.reconnect.initial_backoff_us,
      opt_.reconnect.max_backoff_us);
  cancel_redial(link);
  link.redial_timer = loop_.schedule_after(link.redial_delay_us, [this, to] {
    peers_[to].redial_timer = 0;
    if (!shut_down_ && !peers_[to].conn) dial(to);
  });
}

void TcpTransport::cancel_redial(PeerLink& link) {
  if (link.redial_timer == 0) return;
  loop_.cancel_timer(link.redial_timer);
  link.redial_timer = 0;
}

void TcpTransport::send_wake(ReplicaId to,
                             std::unique_ptr<net::FrameConn> conn) {
  net::FrameConn* raw = conn.get();
  peers_[to].wake = std::move(conn);
  wakes_sent_.fetch_add(1, std::memory_order_relaxed);
  // Our hello is the whole message. The peer's hello (or its close) ends
  // the exchange; closing then, rather than waiting for the peer to, also
  // makes an older peer — which adopts any hello as the link — drop this
  // socket and redial us the normal way.
  raw->start(
      self_, [this, to, raw](std::uint32_t) { end_wake(to, raw); },
      [](const Message&) {}, [this, to, raw] { end_wake(to, raw); });
}

void TcpTransport::end_wake(ReplicaId to, net::FrameConn* raw) {
  PeerLink& link = peers_[to];
  if (link.wake.get() != raw) return;
  bury(std::move(link.wake));
  // Wake again, with backoff, until the peer's redial gives us the link.
  if (!shut_down_ && !link.conn) schedule_redial(to);
}

void TcpTransport::on_wake(ReplicaId from,
                           std::unique_ptr<net::FrameConn> conn) {
  wakes_received_.fetch_add(1, std::memory_order_relaxed);
  bury(std::move(conn));
  PeerLink& link = peers_[from];
  if (shut_down_ || link.conn) return;
  if (link.redial_timer != 0) {
    cancel_redial(link);
    dial(from);
  } else if (link.connector) {
    link.connector->retry_now();
  }
}

void TcpTransport::requeue_unsent(PeerLink& link) {
  net::ByteQueue unsent = link.conn->take_pending();
  unsent.append(std::move(link.backlog));
  link.backlog = std::move(unsent);
}

void TcpTransport::adopt_peer_conn(ReplicaId id,
                                   std::unique_ptr<net::FrameConn> conn,
                                   bool needs_start) {
  PeerLink& link = peers_[id];
  if (link.conn) {
    // The peer redialed before we saw its old socket die: keep the newest
    // socket and requeue whatever the old one had not fully written.
    routes_.erase(link.conn.get());
    requeue_unsent(link);
    connected_count_.fetch_sub(1, std::memory_order_relaxed);
    bury(std::move(link.conn));
  }
  if (id < self_) {
    // The peer redialed us: stop waking it.
    if (link.connector) link.connector->stop();
    cancel_redial(link);
    bury(std::move(link.wake));
  }
  net::FrameConn* raw = conn.get();
  link.conn = std::move(conn);
  routes_[raw] = Route{/*is_client=*/false, id};
  connected_count_.fetch_add(1, std::memory_order_relaxed);
  if (needs_start) {
    // A fresh socket from our Connector. We know who we dialed; a
    // mismatched hello answer means the mesh is miswired — drop and retry
    // rather than corrupt the link. (Accepted sockets were started at
    // accept time and already routed here by their hello, which is itself
    // the proof of a healthy link.)
    raw->start(
        self_,
        [this, raw, id](std::uint32_t hello) {
          if (hello != id) {
            on_conn_closed(raw);
          } else {
            peers_[id].redial_delay_us = 0;
          }
        },
        [this, raw](const Message& m) { on_conn_message(raw, m); },
        [this, raw] { on_conn_closed(raw); });
  } else {
    link.redial_delay_us = 0;
  }
  if (!link.conn || link.conn.get() != raw) return;  // torn down synchronously
  // Send frames queued while the link was down (FIFO preserved: backlog
  // first, then new sends go straight to the connection).
  if (!link.backlog.empty() && !raw->closed()) {
    raw->send(std::move(link.backlog));
    mark_dirty(raw);
  }
}

void TcpTransport::on_accept(net::Socket&& sock) {
  auto conn = make_conn(std::move(sock));
  net::FrameConn* raw = conn.get();
  const std::uint64_t gen = ++accept_gen_;
  pending_.emplace(raw, PendingConn{std::move(conn), gen});
  // A connection that never says hello is dead weight: drop it after the
  // window. The generation check makes a stale timer (this address reused
  // by a later accept) a no-op.
  (void)loop_.schedule_after(opt_.hello_timeout_us, [this, raw, gen] {
    auto it = pending_.find(raw);
    if (it == pending_.end() || it->second.gen != gen) return;
    bury(std::move(it->second.conn));
    pending_.erase(it);
  });
  raw->start(
      self_,
      [this, raw](std::uint32_t hello) {
        auto it = pending_.find(raw);
        if (it == pending_.end()) return;
        std::unique_ptr<net::FrameConn> owned = std::move(it->second.conn);
        pending_.erase(it);
        if (hello == net::kClientHello) {
          const std::uint64_t conn_id = next_client_id_++;
          routes_[raw] = Route{/*is_client=*/true, conn_id};
          clients_.emplace(conn_id, std::move(owned));
          return;
        }
        if (hello < self_) {
          adopt_peer_conn(static_cast<ReplicaId>(hello), std::move(owned),
                          /*needs_start=*/false);
          return;
        }
        if (hello > self_ && hello < peers_.size()) {
          on_wake(static_cast<ReplicaId>(hello), std::move(owned));
          return;
        }
        owned->close();  // nonsense hello
        bury(std::move(owned));
      },
      [this, raw](const Message& m) { on_conn_message(raw, m); },
      [this, raw] { on_conn_closed(raw); });
}

void TcpTransport::on_conn_message(net::FrameConn* raw, const Message& m) {
  auto it = routes_.find(raw);
  if (it == routes_.end()) return;  // torn down mid-batch
  if (it->second.is_client) {
    if (client_handler_) client_handler_(it->second.id, m);
    return;
  }
  messages_delivered_.fetch_add(1, std::memory_order_relaxed);
  if (handler_) handler_(m);
}

void TcpTransport::on_conn_closed(net::FrameConn* raw) {
  auto pending_it = pending_.find(raw);
  if (pending_it != pending_.end()) {
    bury(std::move(pending_it->second.conn));
    pending_.erase(pending_it);
    return;
  }
  auto route_it = routes_.find(raw);
  if (route_it == routes_.end()) return;
  const Route route = route_it->second;
  routes_.erase(route_it);
  if (route.is_client) {
    auto it = clients_.find(route.id);
    if (it != clients_.end()) {
      bury(std::move(it->second));
      clients_.erase(it);
    }
    if (client_close_) client_close_(route.id);
    return;
  }
  const auto id = static_cast<ReplicaId>(route.id);
  PeerLink& link = peers_[id];
  if (link.conn.get() != raw) return;  // already replaced
  raw->close();
  requeue_unsent(link);
  connected_count_.fetch_sub(1, std::memory_order_relaxed);
  bury(std::move(link.conn));
  // Automatic reconnect: the dial side re-arms its Connector; the accept
  // side waits for the peer to redial (a restarted peer wakes us instead).
  // The Connector's own backoff only covers failed connects, so throttle
  // here too — a connection that establishes and then immediately dies
  // (wrong hello, flapping peer) must not redial at line rate.
  if (!shut_down_ && self_ < id) schedule_redial(id);
}

void TcpTransport::bury(std::unique_ptr<net::FrameConn> conn) {
  if (!conn) return;
  conn->close();
  if (conn->flush_queued()) {
    dirty_.erase(std::remove(dirty_.begin(), dirty_.end(), conn.get()),
                 dirty_.end());
  }
  graveyard_.push_back(std::move(conn));
  if (graveyard_.size() == 1) {
    // Destroy once the callback stack that closed it has unwound.
    loop_.post([this] { graveyard_.clear(); });
  }
}

void TcpTransport::send(ReplicaId from, ReplicaId to, const WireFrame& f) {
  if (from != self_ || to >= peers_.size()) {
    throw std::out_of_range("TcpTransport::send: bad replica id");
  }
  if (!f.encoded_yet()) encode_calls_.fetch_add(1, std::memory_order_relaxed);
  const std::string_view bytes = f.bytes();
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(bytes.size(), std::memory_order_relaxed);
  if (loop_.on_loop_thread()) {
    send_on_loop(to, f);
  } else {
    loop_.post([this, to, f] { send_on_loop(to, f); });
  }
}

void TcpTransport::multicast(ReplicaId from, const std::vector<ReplicaId>& tos,
                             const WireFrame& f) {
  // The first send() encodes; every further destination copies the same
  // cached bytes — one serialization, N link queues.
  for (ReplicaId to : tos) send(from, to, f);
}

void TcpTransport::deliver_local(std::string_view frame) {
  // The bytes are the ones every peer link copies, so a self-delivery held
  // behind the fence costs its frame, not the shared Message.
  local_.append(frame);
  if (!fenced_) release_local();
}

void TcpTransport::release_local() {
  local_ready_ = local_.size();
  if (local_ready_ == 0 || local_posted_) return;
  local_posted_ = true;
  // Local delivery skips the wire but keeps the async contract: the
  // handler runs on a later loop pass, never synchronously inside send.
  loop_.post([this] { drain_local(); });
}

void TcpTransport::drain_local() {
  local_posted_ = false;
  // Take the released frames out first: the handler sends, and what it
  // delivers to us must land in a fresh buffer, not under the views the
  // decoded message borrows.
  std::string batch;
  if (local_ready_ == local_.size()) {
    batch.swap(local_);
  } else {
    batch.assign(local_, 0, local_ready_);
    local_.erase(0, local_ready_);
  }
  local_ready_ = 0;
  std::size_t pos = 0;
  while (pos < batch.size()) {
    const Message m = Message::decode_stream_view(batch, &pos);
    messages_delivered_.fetch_add(1, std::memory_order_relaxed);
    if (handler_) handler_(m);
  }
}

void TcpTransport::lift_fence() {
  fenced_ = false;
  release_local();  // in production order, behind any released earlier
}

void TcpTransport::send_on_loop(ReplicaId to, const WireFrame& f) {
  if (to == self_) {
    deliver_local(f.bytes());
    return;
  }
  if (shut_down_) return;
  const std::string_view bytes = f.bytes();
  PeerLink& link = peers_[to];
  if (!link.conn || link.conn->closed()) {
    link.backlog.push(bytes);  // link down: queue for the reconnect
    return;
  }
  link.conn->send(bytes);
  mark_dirty(link.conn.get());
}

void TcpTransport::send_to_client(std::uint64_t conn, const WireFrame& f) {
  auto it = clients_.find(conn);
  if (it == clients_.end()) return;  // client went away; reply dropped
  // Client replies are transport traffic like any other: counting all
  // three preserves the documented encode_calls <= messages_sent
  // invariant on reply-heavy nodes.
  if (!f.encoded_yet()) encode_calls_.fetch_add(1, std::memory_order_relaxed);
  const std::string_view bytes = f.bytes();
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(bytes.size(), std::memory_order_relaxed);
  it->second->send(bytes);
  mark_dirty(it->second.get());
}

std::size_t TcpTransport::connected_peers() const {
  return connected_count_.load(std::memory_order_relaxed);
}

std::size_t TcpTransport::backlog_bytes() const {
  std::size_t total = 0;
  for (const PeerLink& link : peers_) total += link.backlog.size();
  return total;
}

TransportStats TcpTransport::stats() const {
  TransportStats s;
  s.messages_sent = messages_sent_.load(std::memory_order_relaxed);
  s.messages_delivered = messages_delivered_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.encode_calls = encode_calls_.load(std::memory_order_relaxed);
  s.wakes_sent = wakes_sent_.load(std::memory_order_relaxed);
  s.wakes_received = wakes_received_.load(std::memory_order_relaxed);
  s.wire_flushes = wire_metrics_.flushes.load(std::memory_order_relaxed);
  s.frames_flushed =
      wire_metrics_.frames_flushed.load(std::memory_order_relaxed);
  return s;
}

}  // namespace crsm
