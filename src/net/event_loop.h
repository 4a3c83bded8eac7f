// Single-threaded event loop: fd readiness callbacks, monotonic timers and
// a thread-safe task queue, in the style of the netbench receivers (one io
// context per thread, eventfd wakeup).
//
// EventLoop is the abstract pass structure — poll for I/O, dispatch fd
// events, drain posted tasks, fire due timers, run the pass-end hook (the
// group-commit fsync point), then run the wire-flush hook (the per-pass
// outbound coalescing point). Two backends implement the I/O step:
//
//   EpollEventLoop — level-triggered epoll_wait, one syscall per socket
//     write (the portable default).
//   UringEventLoop — io_uring with multishot recv into a provided buffer
//     ring and batched sendmsg SQEs, one io_uring_enter per pass.
//
// Threading contract: every callback — fd events, recv streams, send
// completions, timers, posted tasks, hooks — runs on the thread that called
// run(). Only post(), wakeup() and stop() may be called from other threads.
// A NodeRuntime runs its whole replica (protocol reactor included) on this
// one thread, so protocol code keeps the single-threaded execution model it
// has under the simulator.
#pragma once

#include <sys/types.h>
#include <sys/uio.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace crsm::net {

using TimerId = std::uint64_t;

// Which kernel interface drives socket readiness and I/O.
enum class IoBackend : std::uint8_t { kEpoll, kUring };

[[nodiscard]] const char* io_backend_name(IoBackend b);
// Parses "epoll"/"uring"; returns false on anything else.
[[nodiscard]] bool parse_io_backend(std::string_view s, IoBackend* out);

// Submission batching counters (all zero on the epoll backend). One
// "submit" is one io_uring_enter that handed SQEs to the kernel; the ratio
// sqes_submitted / sqe_submits is the achieved SQE batch size.
struct IoRingStats {
  std::uint64_t sqe_submits = 0;
  std::uint64_t sqes_submitted = 0;
};

// Pass-phase observer (obs::LoopProfiler implements this). run() stamps the
// phase boundaries of every pass; the backend additionally reports time it
// actually blocked inside the kernel wait, so an observer can split the
// poll phase into idle wait vs fd-dispatch work. All calls are made on the
// loop thread. Timestamps are EventLoop::mono_us().
class LoopObserver {
 public:
  virtual ~LoopObserver() = default;
  virtual void begin_pass(std::uint64_t now_us) = 0;
  virtual void poll_done(std::uint64_t now_us) = 0;   // poll_io returned
  virtual void tasks_done(std::uint64_t now_us) = 0;  // posted + timers done
  virtual void fsync_done(std::uint64_t now_us) = 0;  // pass-end hook done
  virtual void end_pass(std::uint64_t now_us) = 0;    // wire flush done
  // Time blocked in epoll_wait / io_uring_enter within the current pass.
  virtual void note_poll_wait(std::uint64_t wait_us) = 0;
};

class EventLoop {
 public:
  // `events` is the ready-mask (EPOLLIN/EPOLLOUT/EPOLLERR...; the uring
  // backend reports poll results with the same bit values).
  using FdCallback = std::function<void(std::uint32_t events)>;
  // Inbound bytes for a recv stream. `data` views a loop-owned buffer valid
  // only for the duration of the call; `eof` is terminal (stream gone).
  using RecvCallback = std::function<void(std::string_view data, bool eof)>;
  // Result of a queued send: bytes written, or -errno (as from sendmsg with
  // MSG_DONTWAIT, so -EAGAIN means "kernel buffer full", not an error).
  using SendCallback = std::function<void(ssize_t n)>;

  virtual ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  [[nodiscard]] virtual IoBackend backend() const = 0;

  // Registers `fd` for level-triggered readiness callbacks. `interest` is
  // the epoll event mask (EPOLLIN | EPOLLOUT as needed; ERR/HUP are always
  // reported).
  virtual void add_fd(int fd, std::uint32_t interest, FdCallback cb) = 0;
  virtual void mod_fd(int fd, std::uint32_t interest) = 0;
  virtual void del_fd(int fd) = 0;

  // --- Optional zero-syscall-per-read/write fast paths. ------------------
  // Backends without them return false/0 and callers fall back to the
  // readiness + read()/sendmsg() path above.

  // Arms a persistent inbound byte stream on `fd` (uring: multishot recv
  // into the provided buffer ring). Returns false if unsupported — the
  // caller should read() off EPOLLIN readiness instead.
  virtual bool add_recv_stream(int /*fd*/, RecvCallback /*cb*/) {
    return false;
  }
  virtual void del_recv_stream(int /*fd*/) {}

  // True when queue_send below actually queues (saves callers building a
  // keepalive batch just to be told 0).
  [[nodiscard]] virtual bool supports_send_queue() const { return false; }

  // Queues one gathered send (uring: a SENDMSG SQE with MSG_DONTWAIT,
  // submitted in the next pass's single io_uring_enter). `keepalive` must
  // own the iov array and every buffer it points at; the loop holds it
  // until the kernel is done, so a caller torn down mid-send cannot leave
  // the SQE reading freed memory. Returns an id for discard_send(), or 0
  // if unsupported — the caller should sendmsg() synchronously.
  virtual std::uint64_t queue_send(int /*fd*/, const iovec* /*iov*/,
                                   int /*iovcnt*/,
                                   std::shared_ptr<void> /*keepalive*/,
                                   SendCallback /*cb*/) {
    return 0;
  }
  // Drops the callback of an in-flight queued send (the bytes may still hit
  // the wire). For connection teardown with a send outstanding.
  virtual void discard_send(std::uint64_t /*id*/) {}

  // Forces queued sends toward the kernel and dispatches any send
  // completions now, without waiting for the next pass. Loop-thread only;
  // used by backpressure spins that must make write progress mid-pass.
  virtual void pump_writes() {}

  // Thread-safe; zeros on backends without submission batching.
  [[nodiscard]] virtual IoRingStats ring_stats() const { return {}; }

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
  // here as one writev/SQE per peer. Ordering matters: running after the
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

 protected:
  EventLoop();  // creates the wakeup eventfd; backends register it

  // One poll-and-dispatch step: block up to `timeout_ms` for I/O, then
  // invoke the ready callbacks (draining the wakeup eventfd itself).
  virtual void poll_io(int timeout_ms) = 0;

  // Called by run() on the loop thread just before it returns. Backends
  // whose kernel-side teardown must happen in the submitter task's context
  // (io_uring: cancel in-flight ops so their file references are released
  // synchronously, not by a deferred exit workqueue) override this.
  virtual void on_run_exit() {}

  [[nodiscard]] int wake_fd() const { return wake_fd_; }
  void drain_wake_fd();

  // For backends: the installed observer (nullptr when none). Backends wrap
  // their blocking kernel wait with mono_us() stamps and report the blocked
  // time via note_poll_wait — only when an observer is installed, so the
  // unobserved hot path pays no extra clock reads.
  [[nodiscard]] LoopObserver* observer() const { return observer_; }

  [[nodiscard]] int next_timeout_ms() const;

 private:
  struct Timer {
    std::uint64_t deadline_us;
    TimerId id;
    bool operator>(const Timer& o) const {
      return deadline_us != o.deadline_us ? deadline_us > o.deadline_us
                                          : id > o.id;
    }
  };

  void drain_posted();
  void fire_due_timers();

  int wake_fd_ = -1;  // eventfd

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

// True if this kernel/seccomp profile supports everything UringEventLoop
// needs (io_uring_setup, provided buffer rings, multishot recv). Probed
// once and cached.
[[nodiscard]] bool uring_available();

// Test hook: makes uring_available() report false and UringEventLoop
// construction fail, to exercise the fallback path on capable kernels.
void force_uring_unavailable_for_test(bool unavailable);

// Builds the requested backend. If uring is requested but unavailable,
// logs a warning to stderr, sets *fell_back (when non-null) and returns an
// epoll loop — callers always get a working loop.
[[nodiscard]] std::unique_ptr<EventLoop> make_event_loop(
    IoBackend requested, bool* fell_back = nullptr);

}  // namespace crsm::net
