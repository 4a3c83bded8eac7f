// Per-pass event-loop profiler: where each reactor pass spends its time.
//
// One EventLoop pass is poll → fd dispatch → posted tasks/timers → pass-end
// hook (group-commit fsync) → wire-flush hook (outbound coalescing). The
// profiler implements net::LoopObserver: run() stamps the phase boundaries,
// the loop reports how long it actually blocked inside epoll_wait,
// and the runtime reports how many commands each durability flush released.
// Every pass folds into registry histograms:
//
//   crsm_loop_pass_us        full pass duration
//   crsm_loop_poll_wait_us   blocked in epoll_wait
//   crsm_loop_io_dispatch_us poll phase minus the kernel wait (fd callbacks,
//                            i.e. frame decode + protocol inbound handling)
//   crsm_loop_protocol_us    posted tasks + timers (submits, retries)
//   crsm_loop_fsync_us       pass-end hook (WAL group commit)
//   crsm_loop_wire_flush_us  wire-flush hook (one writev per peer)
//   crsm_loop_busy_us        pass minus wait — the real CPU cost per pass
//   crsm_loop_cmds_per_pass  commands released per durability flush
//
// busy vs pass matters: an idle node has huge pass times (it blocks in
// poll) but tiny busy times; saturation shows up as busy ≈ pass.
//
// All entry points are loop-thread only, like everything else in the loop.
#pragma once

#include <cstdint>

#include "net/event_loop.h"
#include "obs/metrics.h"

namespace crsm::obs {

class LoopProfiler final : public net::LoopObserver {
 public:
  explicit LoopProfiler(Registry& reg);

  void begin_pass(std::uint64_t now_us) override;
  void poll_done(std::uint64_t now_us) override;
  void tasks_done(std::uint64_t now_us) override;
  void fsync_done(std::uint64_t now_us) override;
  void end_pass(std::uint64_t now_us) override;
  void note_poll_wait(std::uint64_t wait_us) override;

  // Commands released by one durability flush (NodeRuntime group commit).
  void note_batch(std::uint64_t n);

 private:
  LatencyHistogram* pass_us_;
  LatencyHistogram* poll_wait_us_;
  LatencyHistogram* io_dispatch_us_;
  LatencyHistogram* protocol_us_;
  LatencyHistogram* fsync_us_;
  LatencyHistogram* wire_flush_us_;
  LatencyHistogram* busy_us_;
  LatencyHistogram* cmds_per_pass_;
  Counter* passes_total_;

  std::uint64_t t_begin_ = 0;
  std::uint64_t t_poll_ = 0;
  std::uint64_t t_tasks_ = 0;
  std::uint64_t t_fsync_ = 0;
  std::uint64_t wait_us_ = 0;
};

}  // namespace crsm::obs
