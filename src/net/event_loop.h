// Single-threaded event loop: level-triggered epoll readiness callbacks,
// monotonic timers and a thread-safe task queue, in the style of the
// netbench receivers (one io context per thread, eventfd wakeup).
//
// One pass: epoll_wait and dispatch fd events, drain posted tasks, fire due
// timers, run the pass-end hook (the group-commit fsync point), then run the
// wire-flush hook (the per-pass outbound coalescing point). Callbacks issue
// their reads and writes themselves (read() loops, one sendmsg per flush).
//
// Threading contract: every callback — fd events, timers, posted tasks,
// hooks — runs on the thread that called run(). Only post(), wakeup() and
// stop() may be called from other threads. A NodeRuntime runs its whole
// replica (protocol reactor included) on this one thread, so protocol code
// keeps the single-threaded execution model it has under the simulator.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace crsm::net {

using TimerId = std::uint64_t;

// Pass-phase observer (obs::LoopProfiler implements this). run() stamps the
// phase boundaries of every pass and reports the time it actually blocked
// inside epoll_wait, so an observer can split the poll phase into idle wait
// vs fd-dispatch work. All calls are made on the loop thread. Timestamps
// are EventLoop::mono_us().
class LoopObserver {
 public:
  virtual ~LoopObserver() = default;
  virtual void begin_pass(std::uint64_t now_us) = 0;
  virtual void poll_done(std::uint64_t now_us) = 0;   // poll_io returned
  virtual void tasks_done(std::uint64_t now_us) = 0;  // posted + timers done
  virtual void fsync_done(std::uint64_t now_us) = 0;  // pass-end hook done
  virtual void end_pass(std::uint64_t now_us) = 0;    // wire flush done
  // Time blocked in epoll_wait within the current pass.
  virtual void note_poll_wait(std::uint64_t wait_us) = 0;
};

class EventLoop {
 public:
  // `events` is the epoll ready-mask (EPOLLIN/EPOLLOUT/EPOLLERR...).
  using FdCallback = std::function<void(std::uint32_t events)>;

  EventLoop();  // creates the epoll instance and the wakeup eventfd
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Registers `fd` for level-triggered readiness callbacks. `interest` is
  // the epoll event mask (EPOLLIN | EPOLLOUT as needed; ERR/HUP are always
  // reported).
  void add_fd(int fd, std::uint32_t interest, FdCallback cb);
  void mod_fd(int fd, std::uint32_t interest);
  void del_fd(int fd);

  // One-shot timer; loop-thread only. Returns an id usable with
  // cancel_timer (cancellation is loop-thread only too).
  TimerId schedule_after(std::uint64_t delay_us, std::function<void()> fn);
  void cancel_timer(TimerId id);

  // Thread-safe: enqueues `fn` to run on the loop thread and wakes it.
  void post(std::function<void()> fn);

  // Runs `fn` on the loop thread once per iteration, after the pass's fd
  // events, posted tasks and due timers have all been dispatched and before
  // the loop blocks again. This is the natural group-commit point: work
  // accumulated across one pass (e.g. WAL appends) can be made durable with
  // a single fsync here. Set before run() (or from the loop thread).
  void set_pass_end_hook(std::function<void()> fn) {
    pass_end_hook_ = std::move(fn);
  }

  // Runs after the pass-end hook, last thing in every pass. This is the
  // wire coalescing point: frames queued during the pass — including any
  // released by the pass-end hook at the durability point — are flushed
  // here as one writev per peer. Ordering matters: running after the
  // fsync hook means a frame held until durable is never on the wire before
  // its WAL record is safe.
  void set_wire_flush_hook(std::function<void()> fn) {
    wire_flush_hook_ = std::move(fn);
  }

  // Installs (or clears, with nullptr) the pass-phase observer. Not owned;
  // must outlive the loop or be cleared first. Set before run() (or from
  // the loop thread).
  void set_observer(LoopObserver* obs) { observer_ = obs; }

  // Runs until stop(). The calling thread becomes the loop thread.
  void run();
  // Thread-safe; run() returns after finishing the current dispatch pass.
  // A stop() issued before run() latches: run() returns immediately.
  void stop();
  void wakeup();

  [[nodiscard]] bool on_loop_thread() const {
    return std::this_thread::get_id() == loop_thread_;
  }

  // Monotonic microseconds, the loop's timer clock.
  [[nodiscard]] static std::uint64_t mono_us();

 private:
  struct Timer {
    std::uint64_t deadline_us;
    TimerId id;
    bool operator>(const Timer& o) const {
      return deadline_us != o.deadline_us ? deadline_us > o.deadline_us
                                          : id > o.id;
    }
  };

  // One poll-and-dispatch step: block up to `timeout_ms` in epoll_wait,
  // then invoke the ready callbacks (draining the wakeup eventfd itself).
  void poll_io(int timeout_ms);
  [[nodiscard]] int next_timeout_ms() const;
  void drain_posted();
  void fire_due_timers();

  int epfd_ = -1;
  int wake_fd_ = -1;  // eventfd
  std::unordered_map<int, FdCallback> fds_;

  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timer_heap_;
  std::unordered_map<TimerId, std::function<void()>> timer_fns_;  // erased = cancelled
  TimerId next_timer_ = 1;

  std::mutex posted_mu_;
  std::vector<std::function<void()>> posted_;
  std::function<void()> pass_end_hook_;
  std::function<void()> wire_flush_hook_;

  std::atomic<bool> stop_requested_{false};
  std::thread::id loop_thread_;
  LoopObserver* observer_ = nullptr;
};

}  // namespace crsm::net
