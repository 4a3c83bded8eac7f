// Transport over real TCP sockets, driven by the src/net event loop.
//
// One node process hosts one replica; TcpTransport is that replica's view
// of the full mesh. Each unordered replica pair shares exactly one socket
// (the lower id dials, the higher id accepts — with automatic reconnect
// from the dialing side), so per-(from,to) FIFO falls out of TCP byte
// ordering. A single listening port serves both peer links and client
// drivers; an 8-byte hello preamble exchanged on every connection tells the
// acceptor who dialed and tells clients which replica answered.
//
// Rejoin is event-driven: at start() a replica also dials each lower-id
// peer, but only to deliver its hello as a *wake* — the lower side closes
// that socket and, if its own link to us is down, redials at once
// (Connector::retry_now) instead of waiting out its reconnect backoff. A
// restarted replica is therefore redialed about two round trips after it
// comes up, however long it was down. Wakes repeat with the usual backoff
// until the link is up, then stop.
//
// Hot-path properties, matching SimTransport:
//  * Fan-out encode-once: a multicast serializes its Message a single time
//    (WireFrame's cached encoding) and copies those bytes into each peer
//    link's packed send queue (net::ByteQueue) — one encode, N memcpys, no
//    allocation per frame.
//  * Per-pass coalescing: frames queued to one connection during an
//    event-loop pass leave in one writev at pass end (the loop's wire-flush
//    hook), or sooner once the connection's budget is reached.
//  * Flush fence (group commit): while the host has raised the fence,
//    nothing queued reaches the wire or a local handler — not the budget
//    guard, not a reconnect backlog adopted mid-pass, not a self-delivery.
//    A self-delivery waits as its frame's bytes, fence or no fence, and is
//    decoded when delivered. The host lifts the fence right after its
//    pass-end fsync, and the wire flush that follows sends every held
//    frame, in production order per destination. A frame produced while
//    the WAL owes a durability point therefore never precedes that point.
//  * Zero-copy receive: inbound bytes are reassembled (FrameConn) and
//    decoded as views into the connection's receive buffer
//    (Message::decode_stream_view); handlers copy only what they retain.
//  * Uniform accounting: TransportStats counts per-link messages/bytes and
//    per-frame encodes exactly like SimTransport.
//
// Send queues are unbounded: the transport never blocks a sender or sheds
// a frame, since Clock-RSM's stable-order rule assumes reliable FIFO links.
// Bounding memory under overload is the client edge's job (admission
// control), not the peer links'. While a peer link is down, frames queue
// in the link's packed backlog and are spliced onto the next connection; a
// dead connection's unsent frames are spliced back in front of it. Only
// frames fully written to a socket that then died can be lost, so the
// channel is reliable-FIFO while a connection lives and at-most-once
// across repairs.
//
// Threading: everything runs on the EventLoop thread, including the
// registered message handler. send()/multicast() from other threads post
// onto the loop (used by in-process harnesses); stats() is thread-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/message.h"
#include "common/types.h"
#include "common/wire_frame.h"
#include "net/acceptor.h"
#include "net/byte_queue.h"
#include "net/connector.h"
#include "net/event_loop.h"
#include "net/frame_conn.h"
#include "transport/transport.h"

namespace crsm {

// One replica's address in the mesh.
struct TcpPeer {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct TcpTransportOptions {
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;  // 0 = ephemeral; read back with port()
  // Per-pass wire coalescing budget: frames queued to one peer during an
  // event-loop pass are flushed as one writev at pass end, or sooner once a
  // connection's pending bytes reach this budget. 0 flushes every frame as
  // it is queued (one sendmsg per frame), except while the flush fence is
  // up; a reconnect backlog is spliced on and flushed as one.
  std::size_t max_coalesce_bytes = 256 * 1024;
  // Redial backoff for peer links, and for wakes until their link is up.
  net::ConnectorOptions reconnect;
  // Accepted connections must identify themselves within this window or be
  // dropped — otherwise silent connections (port scanners, wedged peers)
  // would pin fds forever.
  std::uint64_t hello_timeout_us = 10'000'000;

  friend bool operator==(const TcpTransportOptions&,
                         const TcpTransportOptions&) = default;
};

class TcpTransport final {
 public:
  using Handler = std::function<void(const Message&)>;
  // Client-driver connections (hello id net::kClientHello) are surfaced by
  // connection, so the host can route replies back to the right socket.
  using ClientHandler = std::function<void(std::uint64_t conn, const Message&)>;
  using ClientCloseHandler = std::function<void(std::uint64_t conn)>;
  using Options = TcpTransportOptions;

  // Binds the listener immediately (so an ephemeral port is readable before
  // any thread runs); everything else happens in start().
  TcpTransport(net::EventLoop& loop, ReplicaId self, Options opt);
  ~TcpTransport();

  [[nodiscard]] std::uint16_t port() const { return acceptor_.port(); }
  [[nodiscard]] ReplicaId self() const { return self_; }

  void register_handler(Handler on_message) { handler_ = std::move(on_message); }
  void set_client_handlers(ClientHandler on_message, ClientCloseHandler on_close) {
    client_handler_ = std::move(on_message);
    client_close_ = std::move(on_close);
  }

  // Loop-thread only: starts accepting, dials every peer with a higher id
  // than ours and wakes every peer with a lower one (peers[self] is our own
  // entry and is ignored).
  void start(std::vector<TcpPeer> peers);
  // Loop-thread only: closes every connection and stops redialing.
  void shutdown();

  // --- sending ---
  // `from` must be self(). Callable from any thread; off-loop calls post.
  void send(ReplicaId from, ReplicaId to, const WireFrame& f);
  // Fan-out: the frame is serialized at most once, whatever the fan-out.
  void multicast(ReplicaId from, const std::vector<ReplicaId>& tos,
                 const WireFrame& f);
  [[nodiscard]] TransportStats stats() const;

  void send_to_client(std::uint64_t conn, const WireFrame& f);

  // --- flush fence (loop-thread only) ---
  // Raised, it holds every frame queued from then on — and everything
  // already queued but not yet flushed — off the wire, and holds
  // self-deliveries back; lifting it lets the next wire flush (the loop's
  // pass-end hook) send them all. Raising an up fence is a no-op.
  void raise_fence() { fenced_ = true; }
  void lift_fence();
  [[nodiscard]] bool fenced() const { return fenced_; }

  // Live peer links (connected and past the hello), for tests/monitoring.
  [[nodiscard]] std::size_t connected_peers() const;
  // Bytes queued for peer links that are down. Loop-thread only.
  [[nodiscard]] std::size_t backlog_bytes() const;

 private:
  struct PeerLink {
    TcpPeer addr;
    // self < id: dials the link. self > id: dials wakes until the peer's
    // link to us is up.
    std::unique_ptr<net::Connector> connector;
    std::unique_ptr<net::FrameConn> conn;  // the pair's one socket
    std::unique_ptr<net::FrameConn> wake;  // self > id: the wake in flight
    // Frames awaiting a live connection (or requeued after one died).
    net::ByteQueue backlog;
    // Delay before the next redial after an established connection (link
    // or wake) died. Doubles per consecutive death (a connect-then-die
    // cycle — e.g. a miswired mesh answering with the wrong hello — must
    // not churn unthrottled) and resets once a link proves healthy.
    std::uint64_t redial_delay_us = 0;
    net::TimerId redial_timer = 0;  // armed redial, 0 = none
  };

  // What a live connection is: the peer link it serves or the client id it
  // carries. Looked up per event, so a connection torn down mid-dispatch
  // simply stops routing.
  struct Route {
    bool is_client = false;
    std::uint64_t id = 0;
  };

  // Builds a conn that counts into this transport's wire metrics.
  [[nodiscard]] std::unique_ptr<net::FrameConn> make_conn(net::Socket sock);
  // Queues `c` for the pass-end flush (flushes early when the conn crosses
  // the coalescing budget, unless the fence is up).
  void mark_dirty(net::FrameConn* c);
  // The wire-flush hook: one flush per dirty conn, end of every pass.
  void flush_pass();

  void send_on_loop(ReplicaId to, const WireFrame& f);
  // Queues a frame's wire bytes for our own handler (held while the fence
  // is up).
  void deliver_local(std::string_view frame);
  // Releases every queued self-delivery and posts one drain for them.
  void release_local();
  // Decodes and hands the released self-deliveries to the handler.
  void drain_local();
  // Starts the peer's Connector: the link when to > self, a wake otherwise.
  void dial(ReplicaId to);
  // Redials `to` after the link's throttled redial delay.
  void schedule_redial(ReplicaId to);
  void cancel_redial(PeerLink& link);
  void send_wake(ReplicaId to, std::unique_ptr<net::FrameConn> conn);
  void end_wake(ReplicaId to, net::FrameConn* raw);
  // A higher-id peer's hello arrived on an accepted socket: it (re)started.
  void on_wake(ReplicaId from, std::unique_ptr<net::FrameConn> conn);
  // Splices a dead link's unsent frames in front of its backlog.
  void requeue_unsent(PeerLink& link);
  void adopt_peer_conn(ReplicaId id, std::unique_ptr<net::FrameConn> conn,
                       bool needs_start);
  void on_accept(net::Socket&& sock);
  void on_conn_message(net::FrameConn* raw, const Message& m);
  void on_conn_closed(net::FrameConn* raw);
  void bury(std::unique_ptr<net::FrameConn> conn);

  net::EventLoop& loop_;
  const ReplicaId self_;
  const Options opt_;
  net::Acceptor acceptor_;
  bool started_ = false;
  bool shut_down_ = false;

  std::vector<PeerLink> peers_;
  std::unordered_map<net::FrameConn*, Route> routes_;

  // An accepted connection whose hello has not arrived yet. `gen` guards
  // the hello-timeout timer against FrameConn address reuse: the timer
  // only fires teardown when the entry it armed for is still the one live.
  struct PendingConn {
    std::unique_ptr<net::FrameConn> conn;
    std::uint64_t gen = 0;
  };
  std::unordered_map<net::FrameConn*, PendingConn> pending_;
  std::uint64_t accept_gen_ = 0;
  // Client-driver connections, keyed by a stable id.
  std::unordered_map<std::uint64_t, std::unique_ptr<net::FrameConn>> clients_;
  std::uint64_t next_client_id_ = 1;
  // Closed connections awaiting safe (post-callback) destruction.
  std::vector<std::unique_ptr<net::FrameConn>> graveyard_;
  std::atomic<std::size_t> connected_count_{0};
  // Conns with frames queued this pass, flushed by flush_pass(). Scrubbed
  // on bury/shutdown so it never holds a dangling pointer.
  std::vector<net::FrameConn*> dirty_;
  net::WireMetrics wire_metrics_;
  bool fenced_ = false;
  // Self-deliveries as the frames' wire bytes (the copy the peers get),
  // back to back in production order. The first local_ready_ bytes are
  // released to the next drain; the rest were queued behind the fence.
  std::string local_;
  std::size_t local_ready_ = 0;
  bool local_posted_ = false;

  Handler handler_;
  ClientHandler client_handler_;
  ClientCloseHandler client_close_;

  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> messages_delivered_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> encode_calls_{0};
  std::atomic<std::uint64_t> wakes_sent_{0};
  std::atomic<std::uint64_t> wakes_received_{0};
};

}  // namespace crsm
