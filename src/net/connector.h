// Outbound connection establishment with automatic retry.
//
// A Connector owns the dial-side of one logical link: it attempts a
// non-blocking connect, watches for completion, and on any failure waits an
// exponentially growing backoff (with the EventLoop's timer) before trying
// again — forever, until stop() or success. The owner re-arms it after a
// established connection later dies, which is what gives TcpTransport links
// automatic reconnect. retry_now() short-circuits the backoff when the owner
// learns out of band that the far end is back (TcpTransport's wake).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/event_loop.h"
#include "net/socket.h"

namespace crsm::net {

struct ConnectorOptions {
  std::uint64_t initial_backoff_us = 10'000;  // 10 ms
  std::uint64_t max_backoff_us = 1'000'000;   // 1 s

  friend bool operator==(const ConnectorOptions&,
                         const ConnectorOptions&) = default;
};

class Connector {
 public:
  using OnConnected = std::function<void(Socket&&)>;
  using Options = ConnectorOptions;

  Connector(EventLoop& loop, std::string host, std::uint16_t port,
            Options opt = {});
  ~Connector();

  Connector(const Connector&) = delete;
  Connector& operator=(const Connector&) = delete;

  // Starts (or restarts, after a connection died) the dial loop.
  // Loop-thread only. Fires `on_connected` exactly once per start() with a
  // connected non-blocking socket.
  void start(OnConnected on_connected);
  void stop();
  // Dials at once if still trying: cancels the pending backoff timer and
  // any in-flight attempt (which may be stuck in SYN retransmits towards a
  // host that was down) and resets the backoff. No-op when not connecting.
  // Loop-thread only.
  void retry_now();

  [[nodiscard]] bool connecting() const { return connecting_; }
  [[nodiscard]] std::uint64_t attempts() const { return attempts_; }

 private:
  void cancel_attempt();  // drops the in-flight socket and backoff timer
  void attempt();
  void on_writable();
  void retry_later();

  EventLoop& loop_;
  const std::string host_;
  const std::uint16_t port_;
  const Options opt_;

  Socket sock_;  // the in-flight attempt
  bool connecting_ = false;
  bool fd_registered_ = false;
  std::uint64_t backoff_us_;
  std::uint64_t attempts_ = 0;
  TimerId retry_timer_ = 0;
  OnConnected on_connected_;
};

}  // namespace crsm::net
