#include "net/connector.h"

#include <sys/epoll.h>

#include <algorithm>
#include <utility>

namespace crsm::net {

Connector::Connector(EventLoop& loop, std::string host, std::uint16_t port,
                     Options opt)
    : loop_(loop),
      host_(std::move(host)),
      port_(port),
      opt_(opt),
      backoff_us_(opt.initial_backoff_us) {}

Connector::~Connector() { stop(); }

void Connector::start(OnConnected on_connected) {
  stop();
  on_connected_ = std::move(on_connected);
  connecting_ = true;
  retry_now();
}

void Connector::stop() {
  cancel_attempt();
  connecting_ = false;
}

void Connector::retry_now() {
  if (!connecting_) return;
  cancel_attempt();
  backoff_us_ = opt_.initial_backoff_us;
  attempt();
}

void Connector::cancel_attempt() {
  if (fd_registered_) {
    loop_.del_fd(sock_.fd());
    fd_registered_ = false;
  }
  sock_.reset();
  if (retry_timer_ != 0) {
    loop_.cancel_timer(retry_timer_);
    retry_timer_ = 0;
  }
}

void Connector::attempt() {
  ++attempts_;
  bool in_progress = false;
  sock_ = tcp_connect(host_, port_, &in_progress);
  if (!sock_.valid()) {
    retry_later();  // synchronous refusal
    return;
  }
  if (!in_progress) {
    // Connected immediately (loopback fast path).
    connecting_ = false;
    on_connected_(std::move(sock_));
    return;
  }
  loop_.add_fd(sock_.fd(), EPOLLOUT, [this](std::uint32_t) { on_writable(); });
  fd_registered_ = true;
}

void Connector::on_writable() {
  loop_.del_fd(sock_.fd());
  fd_registered_ = false;
  if (connect_result(sock_.fd()) != 0) {
    sock_.reset();
    retry_later();
    return;
  }
  connecting_ = false;
  on_connected_(std::move(sock_));
}

void Connector::retry_later() {
  retry_timer_ = loop_.schedule_after(backoff_us_, [this] {
    retry_timer_ = 0;
    if (connecting_) attempt();
  });
  backoff_us_ = std::min(backoff_us_ * 2, opt_.max_backoff_us);
}

}  // namespace crsm::net
