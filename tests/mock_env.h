// A scripted ProtocolEnv for message-level protocol unit tests: the test
// hand-delivers individual messages and inspects exactly what the replica
// sends, logs, delivers and schedules.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rsm/protocol.h"
#include "storage/command_log.h"

namespace crsm::test {

class MockEnv final : public ProtocolEnv {
 public:
  struct Sent {
    ReplicaId to;
    Message msg;
  };
  struct Delivered {
    Command cmd;
    Timestamp ts;
    bool local_origin;
  };
  struct DeliveredRead {
    Command cmd;
    Timestamp read_ts;
  };
  struct Timer {
    Tick due;
    std::function<void()> fn;
  };
  struct InstalledCheckpoint {
    std::string blob;
    std::size_t deliveries_before;  // delivered.size() at install time
  };

  explicit MockEnv(ReplicaId self) : self_(self) {}

  // --- ProtocolEnv ---
  [[nodiscard]] ReplicaId self() const override { return self_; }
  void send(ReplicaId to, Message m) override {
    m.from = self_;
    sent.push_back({to, std::move(m)});
  }
  [[nodiscard]] Tick clock_now() override { return ++clock_; }
  void schedule_after(Tick delay_us, std::function<void()> fn) override {
    timers.push_back({clock_ + delay_us, std::move(fn)});
  }
  [[nodiscard]] CommandLog& log() override { return log_; }
  void deliver(const Command& cmd, Timestamp ts, bool local_origin) override {
    delivered.push_back({cmd, ts, local_origin});
  }
  void deliver_read(const Command& cmd, Timestamp read_ts) override {
    delivered_reads.push_back({cmd, read_ts});
  }
  [[nodiscard]] Timestamp recovery_floor() const override { return floor; }
  void install_checkpoint(std::string_view blob) override {
    installed.push_back({std::string(blob), delivered.size()});
  }

  // --- test helpers ---
  void set_clock(Tick t) { clock_ = t; }
  [[nodiscard]] Tick clock() const { return clock_; }

  // Runs (and removes) every pending timer whose deadline has passed.
  void fire_due_timers() {
    auto pending = std::move(timers);
    timers.clear();
    for (Timer& t : pending) {
      if (t.due <= clock_) {
        t.fn();
      } else {
        timers.push_back(std::move(t));
      }
    }
  }
  void fire_all_timers() {
    while (!timers.empty()) {
      auto pending = std::move(timers);
      timers.clear();
      for (Timer& t : pending) t.fn();
    }
  }

  // Messages of a given type sent so far.
  [[nodiscard]] std::vector<Sent> sent_of(MsgType type) const {
    std::vector<Sent> out;
    for (const Sent& s : sent) {
      if (s.msg.type == type) out.push_back(s);
    }
    return out;
  }
  [[nodiscard]] std::size_t count_sent(MsgType type) const {
    return sent_of(type).size();
  }
  void clear_sent() { sent.clear(); }

  std::vector<Sent> sent;
  std::vector<Delivered> delivered;
  std::vector<DeliveredRead> delivered_reads;
  std::vector<Timer> timers;
  std::vector<InstalledCheckpoint> installed;
  Timestamp floor = kZeroTimestamp;

 private:
  ReplicaId self_;
  Tick clock_ = 1000;
  MemLog log_;
};

}  // namespace crsm::test
