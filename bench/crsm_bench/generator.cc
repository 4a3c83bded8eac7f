#include "generator.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>

#include "kv/kv_store.h"
#include "util/rng.h"

namespace crsm_bench {

namespace {

constexpr std::size_t kPayloadBytes = 64;
constexpr std::size_t kCapacityDepth = 256;  // outstanding per connection
constexpr std::int64_t kDrainTimeoutNs = kOpTimeoutNs + 2'000'000'000;
constexpr std::int64_t kTimeoutScanNs = 100'000'000;

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint64_t parse_value(std::string_view blob) {
  if (blob.empty()) return 0;
  std::uint64_t id = 0;
  if (blob.size() < 16) return kBadValue;
  const auto [end, ec] = std::from_chars(blob.data(), blob.data() + 16, id, 16);
  if (ec != std::errc() || end != blob.data() + 16 || id == 0) return kBadValue;
  return id;
}

}  // namespace

std::string key_name(std::uint16_t key) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "k%03u", static_cast<unsigned>(key));
  return buf;
}

std::string put_payload(std::uint16_t key, std::uint64_t id) {
  crsm::KvRequest r;
  r.op = crsm::KvOp::kPut;
  r.key = key_name(key);
  const std::size_t header = r.encode().size();
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(id));
  r.value = hex;
  r.value.resize(kPayloadBytes - header, '.');
  return r.encode();
}

std::string get_payload(std::uint16_t key) {
  crsm::KvRequest r;
  r.op = crsm::KvOp::kGet;
  r.key = key_name(key);
  return r.encode();
}

Generator::Generator(GenPlan plan, std::vector<crsm::net::Socket> conns)
    : plan_(plan),
      conns_(conns.size()),
      retired_(conns.size()),
      quiet_(conns.size()) {
  stats_.first_reply_after_handover_ns.assign(conns.size(), -1);
  awaiting_first_reply_.assign(conns.size(), false);
  for (std::size_t r = 0; r < conns.size(); ++r) {
    crsm::net::set_nonblocking(conns[r].fd());
    conns_[r].sock = std::move(conns[r]);
    conns_[r].slot = open_slot();
    conns_[r].alive = true;
  }
  // Arrivals over the warmup and fixed-rate window, plus the capacity
  // window at up to 800k ops/s, so the history does not reallocate (and
  // stall the generator) mid-run. Untouched capacity costs no memory.
  const double open_s = static_cast<double>(plan_.fixed_end_ns) / 1e9;
  const double capacity_s =
      static_cast<double>(plan_.capacity_end_ns - plan_.capacity_start_ns) / 1e9;
  hist_.ops.reserve(static_cast<std::size_t>(plan_.rate * open_s * 1.1 +
                                             800'000 * capacity_s) +
                    (1u << 16));
}

Generator::~Generator() { join(); }

void Generator::start() {
  thread_ = std::thread([this] { run(); });
}

void Generator::join() {
  if (thread_.joinable()) thread_.join();
}

void Generator::hand_over(std::size_t replica, crsm::net::Socket sock) {
  std::lock_guard<std::mutex> lk(handover_mu_);
  handovers_.emplace_back(replica, std::move(sock));
  handover_ready_.store(true, std::memory_order_release);
}

bool Generator::retire(std::size_t replica, std::int64_t deadline_ns) {
  retired_[replica].store(true, std::memory_order_release);
  while (!quiet_[replica].load(std::memory_order_acquire)) {
    if (mono_ns() > deadline_ns) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

std::uint32_t Generator::open_slot() {
  slot_ops_.emplace_back();
  slot_outstanding_.push_back(0);
  return static_cast<std::uint32_t>(slot_ops_.size() - 1);
}

std::size_t Generator::new_op(OpKind kind, std::uint16_t key, std::int64_t due,
                              Phase phase, bool resend) {
  Op op;
  op.kind = kind;
  op.key = key;
  op.due_ns = due;
  op.phase = phase;
  op.resend = resend;
  hist_.ops.push_back(op);
  return hist_.ops.size() - 1;
}

bool Generator::usable(std::size_t replica) const {
  return conns_[replica].alive &&
         !retired_[replica].load(std::memory_order_acquire);
}

int Generator::live_from(std::size_t from) const {
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    const std::size_t r = (from + i) % conns_.size();
    if (usable(r)) return static_cast<int>(r);
  }
  return -1;
}

void Generator::send_op(std::size_t idx, std::size_t replica) {
  Conn& c = conns_[replica];
  Op& op = hist_.ops[idx];
  op.client = c.slot;
  op.seq = static_cast<std::uint32_t>(slot_ops_[c.slot].size() + 1);
  op.replica = static_cast<std::uint8_t>(replica);
  slot_ops_[c.slot].push_back(static_cast<std::uint32_t>(idx));
  ++slot_outstanding_[c.slot];
  ++outstanding_;

  crsm::Message m;
  m.type = op.kind == OpKind::kPut ? crsm::MsgType::kClientRequest
                                   : crsm::MsgType::kClientRead;
  m.cmd.client = op.client + 1;  // wire client ids start at 1
  m.cmd.seq = op.seq;
  m.cmd.payload = op.kind == OpKind::kPut ? put_payload(op.key, write_id(idx))
                                          : get_payload(op.key);
  const std::size_t before = c.out.size();
  m.encode(&c.out);
  c.bytes_queued += c.out.size() - before;
  c.unsent.emplace_back(idx, c.bytes_queued);
}

void Generator::flush(std::size_t replica, std::int64_t now) {
  Conn& c = conns_[replica];
  while (c.alive && c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.sock.fd(), c.out.data() + c.out_off,
                             c.out.size() - c.out_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn_died(replica);
      return;
    }
    c.out_off += static_cast<std::size_t>(n);
    c.bytes_written += static_cast<std::uint64_t>(n);
  }
  while (!c.unsent.empty() && c.unsent.front().second <= c.bytes_written) {
    hist_.ops[c.unsent.front().first].sent_ns = now;
    c.unsent.pop_front();
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
}

void Generator::read_conn(std::size_t replica, std::int64_t now) {
  Conn& c = conns_[replica];
  char chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(c.sock.fd(), chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      c.in.append(std::string_view(chunk, static_cast<std::size_t>(n)));
      if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    conn_died(replica);  // EOF or error
    return;
  }
  try {
    const std::string_view frames = c.in.complete_prefix();
    std::size_t pos = 0;
    while (pos < frames.size()) {
      const crsm::Message m = crsm::Message::decode_stream_view(frames, &pos);
      if (awaiting_first_reply_[replica]) {
        awaiting_first_reply_[replica] = false;
        stats_.first_reply_after_handover_ns[replica] = now;
      }
      on_reply(m, now);
    }
    c.in.consume(pos);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crsm_bench: malformed reply from replica %zu: %s\n",
                 replica, e.what());
    ++hist_.unmatched_replies;
    conn_died(replica);
  }
}

void Generator::on_reply(const crsm::Message& m, std::int64_t now) {
  const bool write_reply = m.type == crsm::MsgType::kClientReply;
  const bool read_reply = m.type == crsm::MsgType::kClientReadReply;
  const std::uint64_t slot = m.cmd.client - 1;
  if ((!write_reply && !read_reply) || m.cmd.client == 0 ||
      slot >= slot_ops_.size() || m.cmd.seq == 0 ||
      m.cmd.seq > slot_ops_[slot].size()) {
    ++hist_.unmatched_replies;
    return;
  }
  const std::size_t idx = slot_ops_[slot][m.cmd.seq - 1];
  Op& op = hist_.ops[idx];
  if ((op.kind == OpKind::kGet) != read_reply) {
    ++hist_.unmatched_replies;
    return;
  }
  if (op.replies < 255) ++op.replies;
  if (op.status != OpStatus::kPending) return;  // a duplicate, or too late
  op.status = OpStatus::kDone;
  op.done_ns = now;
  if (op.kind == OpKind::kGet) op.read_value = parse_value(m.blob.view());
  --slot_outstanding_[slot];
  --outstanding_;
}

void Generator::conn_died(std::size_t replica) {
  Conn& c = conns_[replica];
  if (!c.alive) return;
  c.alive = false;
  c.sock.reset();
  c.in = crsm::net::FrameAssembler();
  c.out.clear();
  c.out_off = 0;
  c.unsent.clear();
  for (const std::uint32_t idx : slot_ops_[c.slot]) {
    Op& op = hist_.ops[idx];
    if (op.status != OpStatus::kPending) continue;
    op.status = OpStatus::kLost;
    --outstanding_;
    lost_.push_back(idx);
  }
  slot_outstanding_[c.slot] = 0;
}

void Generator::adopt_handovers() {
  if (!handover_ready_.load(std::memory_order_acquire)) return;
  std::vector<std::pair<std::size_t, crsm::net::Socket>> taken;
  {
    std::lock_guard<std::mutex> lk(handover_mu_);
    taken.swap(handovers_);
    handover_ready_.store(false, std::memory_order_relaxed);
  }
  for (auto& [replica, sock] : taken) {
    conn_died(replica);
    Conn& c = conns_[replica];
    crsm::net::set_nonblocking(sock.fd());
    c.sock = std::move(sock);
    c.bytes_queued = c.bytes_written = 0;
    // A fresh client id: replies owed to the old one died with its socket.
    c.slot = open_slot();
    c.alive = true;
    awaiting_first_reply_[replica] = true;
    quiet_[replica].store(false, std::memory_order_relaxed);
    retired_[replica].store(false, std::memory_order_relaxed);
  }
}

void Generator::note_quiet() {
  for (std::size_t r = 0; r < conns_.size(); ++r) {
    if (!retired_[r].load(std::memory_order_acquire) ||
        quiet_[r].load(std::memory_order_relaxed)) {
      continue;
    }
    const Conn& c = conns_[r];
    if (!c.alive || slot_outstanding_[c.slot] == 0) {
      quiet_[r].store(true, std::memory_order_release);
    }
  }
}

void Generator::scan_timeouts(std::int64_t now) {
  while (first_open_ < hist_.ops.size() &&
         hist_.ops[first_open_].status != OpStatus::kPending) {
    ++first_open_;
  }
  for (std::size_t i = first_open_; i < hist_.ops.size(); ++i) {
    Op& op = hist_.ops[i];
    if (op.status != OpStatus::kPending || op.sent_ns < 0) continue;
    if (now - op.sent_ns < kOpTimeoutNs) continue;
    op.status = OpStatus::kTimeout;
    --slot_outstanding_[op.client];
    --outstanding_;
  }
}

void Generator::resend_lost() {
  while (!lost_.empty()) {
    const int r = live_from(rr_++);
    if (r < 0) return;  // nothing live: keep them for the next handover
    const Op lost = hist_.ops[lost_.front()];
    lost_.pop_front();
    ++stats_.resends;
    send_op(new_op(lost.kind, lost.key, lost.due_ns, lost.phase, true),
            static_cast<std::size_t>(r));
  }
}

void Generator::poll_once(std::int64_t timeout_ns) {
  pollfd pfds[8];
  std::size_t owner[8];
  nfds_t n = 0;
  for (std::size_t r = 0; r < conns_.size() && n < 8; ++r) {
    const Conn& c = conns_[r];
    if (!c.alive) continue;
    pfds[n] = {c.sock.fd(),
               static_cast<short>(POLLIN |
                                  (c.out_off < c.out.size() ? POLLOUT : 0)),
               0};
    owner[n++] = r;
  }
  timespec ts{};
  timeout_ns = std::max<std::int64_t>(timeout_ns, 0);
  ts.tv_sec = timeout_ns / 1'000'000'000;
  ts.tv_nsec = timeout_ns % 1'000'000'000;
  if (n == 0) {
    nanosleep(&ts, nullptr);
    return;
  }
  const int rc = ::ppoll(pfds, n, &ts, nullptr);
  if (rc <= 0) return;
  const std::int64_t now = rel_now();
  for (nfds_t i = 0; i < n; ++i) {
    if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) read_conn(owner[i], now);
    if ((pfds[i].revents & POLLOUT) && conns_[owner[i]].alive) {
      flush(owner[i], now);
    }
  }
}

void Generator::run() {
  // Microsecond timer slack: the default 50 us would make every arrival
  // late by up to that much.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  crsm::Rng rng(plan_.seed);
  const double mean_gap_ns = 1e9 / plan_.rate;
  auto draw = [&](OpKind* kind, std::uint16_t* key) {
    *kind = rng.bernoulli(plan_.read_fraction) ? OpKind::kGet : OpKind::kPut;
    *key = static_cast<std::uint16_t>(rng.uniform_int(0, kKeys - 1));
  };
  std::int64_t next_due = static_cast<std::int64_t>(rng.exponential(mean_gap_ns));
  std::int64_t last_scan = 0;
  // Generator CPU and wall time across each measured window: each boundary
  // is stamped once, on the first loop pass past it.
  const std::int64_t bounds[4] = {plan_.fixed_start_ns, plan_.fixed_end_ns,
                                  plan_.capacity_start_ns, plan_.capacity_end_ns};
  std::int64_t cpu_at[4], wall_at[4];
  int stamped = 0;

  for (;;) {
    adopt_handovers();
    std::int64_t now = rel_now();
    while (stamped < 4 && now >= bounds[stamped]) {
      cpu_at[stamped] = thread_cpu_ns();
      wall_at[stamped++] = now;
      if (stamped == 2) {
        stats_.cpu_fixed_ns = cpu_at[1] - cpu_at[0];
        stats_.wall_fixed_ns = wall_at[1] - wall_at[0];
      } else if (stamped == 4) {
        stats_.cpu_capacity_ns = cpu_at[3] - cpu_at[2];
        stats_.wall_capacity_ns = wall_at[3] - wall_at[2];
      }
    }

    std::int64_t wait_ns = 1'000'000;
    if (now < plan_.fixed_end_ns) {
      // Open loop: everything due by now, in schedule order.
      while (next_due <= now && next_due < plan_.fixed_end_ns) {
        OpKind kind;
        std::uint16_t key;
        draw(&kind, &key);
        const Phase phase = next_due < plan_.fixed_start_ns ? Phase::kWarmup
                                                            : Phase::kFixed;
        const std::size_t idx = new_op(kind, key, next_due, phase, false);
        const std::size_t want = rr_++ % conns_.size();
        const int r = live_from(want);
        if (r < 0) {
          hist_.ops[idx].status = OpStatus::kLost;
          lost_.push_back(idx);
        } else {
          if (static_cast<std::size_t>(r) != want) ++stats_.failovers;
          send_op(idx, static_cast<std::size_t>(r));
        }
        next_due += static_cast<std::int64_t>(rng.exponential(mean_gap_ns));
      }
      wait_ns = std::min(next_due, plan_.fixed_end_ns) - now;
    } else if (now < plan_.capacity_start_ns) {
      // The quiet gap: the fixed-rate window's last replies arrive and its
      // closing scrape sees no capacity traffic.
      wait_ns = std::min<std::int64_t>(plan_.capacity_start_ns - now, 1'000'000);
    } else if (now < plan_.capacity_end_ns) {
      // Closed loop: top every live connection up to the target depth.
      for (std::size_t r = 0; r < conns_.size(); ++r) {
        Conn& c = conns_[r];
        while (usable(r) && slot_outstanding_[c.slot] < kCapacityDepth) {
          OpKind kind;
          std::uint16_t key;
          draw(&kind, &key);
          send_op(new_op(kind, key, now, Phase::kCapacity, false), r);
        }
      }
      wait_ns = std::min<std::int64_t>(plan_.capacity_end_ns - now, 1'000'000);
    } else {
      if (outstanding_ == 0 && lost_.empty()) break;
      if (now - plan_.capacity_end_ns > kDrainTimeoutNs) {
        for (std::size_t i = first_open_; i < hist_.ops.size(); ++i) {
          if (hist_.ops[i].status == OpStatus::kPending) {
            hist_.ops[i].status = OpStatus::kTimeout;
          }
        }
        for (std::size_t idx : lost_) hist_.ops[idx].status = OpStatus::kTimeout;
        lost_.clear();
        outstanding_ = 0;
        break;
      }
    }

    resend_lost();
    now = rel_now();
    for (std::size_t r = 0; r < conns_.size(); ++r) flush(r, now);
    note_quiet();
    if (now - last_scan > kTimeoutScanNs) {
      scan_timeouts(now);
      last_scan = now;
    }
    poll_once(wait_ns);
  }
}

ReadBack Generator::read_back(int timeout_ms) {
  // A restart that finished after the generator thread did (a slow host)
  // handed over a connection the thread never adopted.
  adopt_handovers();
  ReadBack rb;
  rb.values.resize(conns_.size());
  std::vector<std::vector<std::size_t>> idx(conns_.size());
  rb.sent_ns = rel_now();
  for (std::size_t r = 0; r < conns_.size(); ++r) {
    if (!conns_[r].alive) continue;
    for (std::size_t k = 0; k < kKeys; ++k) {
      idx[r].push_back(new_op(OpKind::kGet, static_cast<std::uint16_t>(k),
                              rb.sent_ns, Phase::kDrain, false));
      send_op(idx[r].back(), r);
    }
  }
  const std::int64_t deadline =
      rb.sent_ns + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
  for (;;) {
    const std::int64_t now = rel_now();
    for (std::size_t r = 0; r < conns_.size(); ++r) flush(r, now);
    if (outstanding_ == 0 || now > deadline) break;
    poll_once(1'000'000);
  }
  rb.done_ns = rel_now();
  for (std::size_t r = 0; r < conns_.size(); ++r) {
    bool complete = !idx[r].empty();
    for (std::size_t i : idx[r]) {
      if (hist_.ops[i].status != OpStatus::kDone) complete = false;
    }
    if (!complete) continue;
    for (std::size_t i : idx[r]) rb.values[r].push_back(hist_.ops[i].read_value);
  }
  return rb;
}

}  // namespace crsm_bench
