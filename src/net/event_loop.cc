#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "net/socket.h"

namespace crsm::net {

namespace {
constexpr int kMaxEvents = 64;
}  // namespace

EventLoop::EventLoop() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw NetError("epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (wake_fd_ < 0 || ::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    if (wake_fd_ >= 0) ::close(wake_fd_);
    ::close(epfd_);
    throw NetError("eventfd wakeup setup failed");
  }
}

EventLoop::~EventLoop() {
  ::close(wake_fd_);
  ::close(epfd_);
}

std::uint64_t EventLoop::mono_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void EventLoop::add_fd(int fd, std::uint32_t interest, FdCallback cb) {
  epoll_event ev{};
  ev.events = interest;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    throw NetError(std::string("epoll_ctl(ADD): ") + std::strerror(errno));
  }
  fds_[fd] = std::move(cb);
}

void EventLoop::mod_fd(int fd, std::uint32_t interest) {
  epoll_event ev{};
  ev.events = interest;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    throw NetError(std::string("epoll_ctl(MOD): ") + std::strerror(errno));
  }
}

void EventLoop::del_fd(int fd) {
  // The fd may already be closed (EBADF) — deregistration must not throw on
  // teardown paths.
  (void)::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  fds_.erase(fd);
}

TimerId EventLoop::schedule_after(std::uint64_t delay_us,
                                  std::function<void()> fn) {
  const TimerId id = next_timer_++;
  timer_heap_.push(Timer{mono_us() + delay_us, id});
  timer_fns_.emplace(id, std::move(fn));
  return id;
}

void EventLoop::cancel_timer(TimerId id) { timer_fns_.erase(id); }

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(posted_mu_);
    posted_.push_back(std::move(fn));
  }
  wakeup();
}

void EventLoop::wakeup() {
  const std::uint64_t one = 1;
  // A full eventfd counter still wakes the loop; ignore short writes.
  (void)!::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::stop() {
  stop_requested_.store(true, std::memory_order_release);
  wakeup();
}

void EventLoop::poll_io(int timeout_ms) {
  epoll_event events[kMaxEvents];
  const std::uint64_t wait_begin = observer_ ? mono_us() : 0;
  const int n = ::epoll_wait(epfd_, events, kMaxEvents, timeout_ms);
  // Only an observed loop pays the extra clock reads.
  if (observer_) observer_->note_poll_wait(mono_us() - wait_begin);
  if (n < 0 && errno != EINTR) {
    throw NetError(std::string("epoll_wait: ") + std::strerror(errno));
  }
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wake_fd_) {
      std::uint64_t buf;
      (void)!::read(wake_fd_, &buf, sizeof(buf));
      continue;
    }
    // Look the callback up per event: an earlier callback in this batch
    // may have deregistered this fd (e.g. a peer close tearing down a
    // sibling connection).
    auto it = fds_.find(fd);
    if (it == fds_.end()) continue;
    // Copy: the callback may del_fd(fd) (invalidating `it`) or add fds.
    FdCallback cb = it->second;
    cb(events[i].events);
  }
}

void EventLoop::drain_posted() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lk(posted_mu_);
    tasks.swap(posted_);
  }
  for (auto& t : tasks) t();
}

void EventLoop::fire_due_timers() {
  const std::uint64_t now = mono_us();
  while (!timer_heap_.empty() && timer_heap_.top().deadline_us <= now) {
    const TimerId id = timer_heap_.top().id;
    timer_heap_.pop();
    auto it = timer_fns_.find(id);
    if (it == timer_fns_.end()) continue;  // cancelled
    auto fn = std::move(it->second);
    timer_fns_.erase(it);
    fn();
  }
}

int EventLoop::next_timeout_ms() const {
  if (timer_heap_.empty()) return 100;  // idle heartbeat
  const std::uint64_t now = mono_us();
  const std::uint64_t dl = timer_heap_.top().deadline_us;
  if (dl <= now) return 0;
  // Round up so a timer never fires early, capped to keep stop() responsive.
  const std::uint64_t ms = (dl - now + 999) / 1000;
  return static_cast<int>(ms > 100 ? 100 : ms);
}

void EventLoop::run() {
  loop_thread_ = std::this_thread::get_id();
  // stop() may legitimately arrive before run() does: a `stop_requested_`
  // latch (instead of a running flag set here) makes that race benign.
  while (!stop_requested_.load(std::memory_order_acquire)) {
    if (observer_ == nullptr) {
      poll_io(next_timeout_ms());
      drain_posted();
      fire_due_timers();
      if (pass_end_hook_) pass_end_hook_();
      if (wire_flush_hook_) wire_flush_hook_();
      continue;
    }
    observer_->begin_pass(mono_us());
    poll_io(next_timeout_ms());
    observer_->poll_done(mono_us());
    drain_posted();
    fire_due_timers();
    observer_->tasks_done(mono_us());
    if (pass_end_hook_) pass_end_hook_();
    observer_->fsync_done(mono_us());
    if (wire_flush_hook_) wire_flush_hook_();
    observer_->end_pass(mono_us());
  }
  // Run tasks posted between the final dispatch and stop(), so shutdown
  // work posted from other threads is not silently dropped.
  drain_posted();
  if (pass_end_hook_) pass_end_hook_();
  if (wire_flush_hook_) wire_flush_hook_();
}

}  // namespace crsm::net
