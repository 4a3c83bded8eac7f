// crsm_bench: open-loop, fault-injecting benchmark of a real 3-replica
// Clock-RSM cluster (crsm_node processes on loopback), with a per-layer
// cost ledger. See README.md in this directory for the workloads, the
// metrics and how to read them.
//
//   crsm_bench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//              [--smoke] [--rate OPS_PER_S] [--node-bin PATH] [--out DIR]
//   crsm_bench --self-test
//
// Every run prints a table and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the run is repeated with
// node tracing on, and the metrics are the per-layer ones (the tracing
// overhead on each end-to-end, latency and CPU metric is printed in the
// table).
//
// Exit codes: 0 ok; 1 a correctness check failed; 2 usage or set-up error;
// 3 the run is invalid because the generator, not the cluster, set the pace.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/latency_model.h"
#include "bench.h"
#include "checker.h"
#include "cluster.h"
#include "generator.h"
#include "harness/latency_experiment.h"
#include "kv/kv_store.h"
#include "ledger.h"
#include "util/topology.h"

namespace crsm_bench {
namespace {

struct Workload {
  const char* name;
  bool sim = false;
  bool durable = false;
  bool restart = false;
  double rate = 0;  // open-loop ops/s
  double read_fraction = 0;
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"durable_write", false, true, false, 20'000, 0.0},
    {"volatile_write", false, false, false, 20'000, 0.0},
    {"read_heavy", false, true, false, 20'000, 0.9},
    {"node_restart", false, true, true, 10'000, 0.0},
    {"paper_wan5", true, false, false, 0, 0.0},
};

constexpr std::size_t kRestartedReplica = 2;
constexpr std::size_t kSpanEvery = 16;
constexpr std::int64_t kQuietGapNs = 100'000'000;
// Validity limits: beyond these the generator, not the cluster, set the
// pace, and the run's numbers describe the generator. Lateness is judged
// per half-second slice, by the median slice: one stall of the host delays
// a burst of requests in every process alike, while a generator that
// cannot keep up is late in every slice. Lateness counts against the run
// only while the generator was busy too: a host that takes CPU from the
// whole guest (steal time) also makes a mostly idle generator late, and
// the latencies, timed from due time, already include that delay.
constexpr double kMaxLateP99Us = 1000;
constexpr std::int64_t kLateSliceNs = 500'000'000;
constexpr double kMinLateGenCpuShare = 0.5;
constexpr double kMaxGenCpuShare = 0.9;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;  // BENCHMARK.json's run_seconds
  bool trace = false;
  bool smoke = false;
  bool self_test = false;
  double rate = 0;  // 0: the workload's own
  std::string node_bin;
  std::string out = ".bench_out";
};

struct Phases {
  double warmup_s, fixed_s, capacity_s;
  int setups;
};

// --seconds is the measured time: three quarters fixed-rate window, which
// latency, CPU and memory come from, and one quarter capacity window. Set-up
// is repeated and its median reported.
Phases phases(const Options& o) {
  if (o.smoke) return {1, 1, 1, 1};
  return {std::min(2.0, 0.2 * o.seconds), 0.75 * o.seconds, 0.25 * o.seconds, 9};
}

struct RunOutput {
  std::vector<std::string> violations;
  std::string invalid;  // why the run is invalid; empty when valid
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics e2e;
  Metrics layers;
};

// Chrome trace-event JSON of the traced runs, written at exit.
std::vector<std::string> g_trace_events;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME|all [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "          [--smoke] [--rate OPS_PER_S] [--node-bin PATH] "
               "[--out DIR]\n"
               "       %s --self-test\n"
               "workloads:",
               argv0, argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

void sleep_until(std::int64_t abs_ns) {
  timespec ts{};
  ts.tv_sec = abs_ns / 1'000'000'000;
  ts.tv_nsec = abs_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// A scratch directory under --out for node logs and WALs, removed with
// everything in it when the run ends.
class WorkDir {
 public:
  explicit WorkDir(const std::string& out) {
    std::string tmpl = out + "/run-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp " + tmpl + ": " + std::strerror(errno));
    }
    path_ = tmpl;
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Boots the replicas one at a time, highest id first, each once the one
// before answers a client hello, then waits until every replica has acked a
// probe write sent through it. Returns the seconds that took; `conns` get
// one connection per replica, hello done and nothing outstanding.
//
// Lower ids dial higher ones, and a refused dial backs off 10 ms: starting
// all three at once makes set-up time bimodal on whether a dial beat the
// peer's listen. In this order every dial finds its peer listening.
double boot(Cluster& c, std::vector<crsm::net::Socket>* conns) {
  const std::int64_t t0 = mono_ns();
  const std::int64_t deadline = t0 + 15'000'000'000;
  conns->clear();
  conns->resize(kReplicas);
  for (std::size_t r = kReplicas; r-- > 0;) {
    c.spawn(r);
    (*conns)[r] = c.connect_client(r, deadline);
  }
  constexpr crsm::ClientId kProbeClient = 1ULL << 40;
  for (std::size_t r = 0; r < kReplicas; ++r) {
    crsm::KvRequest put;
    put.op = crsm::KvOp::kPut;
    put.key = "probe-" + std::to_string(r);
    put.value = "probe";
    crsm::Message m;
    m.type = crsm::MsgType::kClientRequest;
    m.cmd.client = kProbeClient + r;
    m.cmd.seq = 1;
    m.cmd.payload = put.encode();
    write_all((*conns)[r].fd(), m.encode(), deadline);
  }
  for (std::size_t r = 0; r < kReplicas; ++r) {
    crsm::net::FrameAssembler in;
    const crsm::Message reply = read_message((*conns)[r].fd(), in, deadline);
    if (reply.type != crsm::MsgType::kClientReply ||
        reply.cmd.client != kProbeClient + r || in.buffered() != 0) {
      throw crsm::net::NetError("unexpected probe reply from replica " +
                                std::to_string(r));
    }
  }
  return static_cast<double>(mono_ns() - t0) / 1e9;
}

void add_spans(const History& h, std::size_t pid) {
  auto us = [](std::int64_t ns) { return fmt(static_cast<double>(ns) / 1e3); };
  for (std::size_t i = 0; i < h.ops.size(); i += kSpanEvery) {
    const Op& op = h.ops[i];
    if (op.sent_ns < 0 || op.done_ns < 0) continue;
    const std::string common =
        ",\"pid\":" + std::to_string(pid) + ",\"tid\":" +
        std::to_string(op.replica) + ",\"args\":{\"client\":" +
        std::to_string(op.client + 1) + ",\"seq\":" + std::to_string(op.seq) +
        ",\"op\":\"" + (op.kind == OpKind::kPut ? "put" : "get") + "\"}}";
    auto span = [&](const char* name, std::int64_t from, std::int64_t to) {
      g_trace_events.push_back(std::string("{\"name\":\"") + name +
                               "\",\"ph\":\"X\",\"ts\":" + us(from) +
                               ",\"dur\":" + us(to - from) + common);
    };
    span("client.request", op.due_ns, op.done_ns);
    span("client.send", op.due_ns, op.sent_ns);
    span("client.wait", op.sent_ns, op.done_ns);
  }
}

void write_trace(const std::string& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < g_trace_events.size(); ++i) {
    out << (i ? ",\n" : "") << g_trace_events[i];
  }
  out << "\n]}\n";
}

// Per-layer metrics that only some workloads produce; the rest report 0.
struct ExtraLayers {
  ReplayResult replay;
  double boot_s = 0, first_commit_s = 0, catchup_rounds = 0,
         catchup_commits = 0, unavailable_s = 0, restarted_rss_mb = 0;
  double write_p50_ms = 0, write_p99_ms = 0, write_p999_ms = 0,
         read_p50_ms = 0, read_p99_ms = 0, overhead_us_mean = 0, error_frac = 0,
         capacity_ops_s = 0;
  double late_us_p99 = 0, late_ms_max = 0, gen_cpu_share_fixed = 0,
         gen_cpu_share = 0, failovers = 0,
         resends = 0;
  double sim_cpu_us_per_cmd = 0, sim_msgs_per_cmd = 0, sim_cmds_per_wall_s = 0,
         sim_commit_mean_ms = 0, sim_wall_s = 0, model_gap_ms = 0;
};

Metrics layer_metrics(const ServerWindow& sw, const ExtraLayers& x) {
  Metrics m;
  add_server_layers(m, sw);
  auto add = [&](const char* name, double v, const char* unit) {
    m.push_back({name, v, unit});
  };
  add("common.encode_ns_per_msg", x.replay.encode_ns_per_msg, "ns");
  add("common.decode_ns_per_msg", x.replay.decode_ns_per_msg, "ns");
  add("kv.apply_ns_per_op", x.replay.kv_apply_ns_per_op, "ns");
  add("storage.replay_sync_us_p50", x.replay.wal_sync_us_p50, "us");
  add("recovery.boot_s", x.boot_s, "s");
  add("recovery.first_commit_s", x.first_commit_s, "s");
  add("recovery.catchup_rounds", x.catchup_rounds, "count");
  add("recovery.catchup_commits", x.catchup_commits, "count");
  add("recovery.unavailable_s", x.unavailable_s, "s");
  add("recovery.peak_rss_mb", x.restarted_rss_mb, "MB");
  add("client.write_p50_ms", x.write_p50_ms, "ms");
  add("client.write_p99_ms", x.write_p99_ms, "ms");
  add("client.write_p999_ms", x.write_p999_ms, "ms");
  add("client.read_p50_ms", x.read_p50_ms, "ms");
  add("client.read_p99_ms", x.read_p99_ms, "ms");
  add("client.overhead_us_mean", x.overhead_us_mean, "us");
  add("client.error_frac", x.error_frac, "ratio");
  add("client.capacity_ops_s", x.capacity_ops_s, "ops/s");
  add("gen.late_us_p99", x.late_us_p99, "us");
  add("gen.late_ms_max", x.late_ms_max, "ms");
  add("gen.cpu_share_fixed", x.gen_cpu_share_fixed, "ratio");
  add("gen.cpu_share", x.gen_cpu_share, "ratio");
  add("gen.failovers", x.failovers, "count");
  add("gen.resends", x.resends, "count");
  add("sim.cpu_us_per_cmd", x.sim_cpu_us_per_cmd, "us");
  add("sim.msgs_per_cmd", x.sim_msgs_per_cmd, "count");
  add("sim.cmds_per_wall_s", x.sim_cmds_per_wall_s, "1/s");
  add("sim.commit_mean_ms", x.sim_commit_mean_ms, "ms");
  add("sim.wall_s", x.sim_wall_s, "s");
  add("analysis.model_gap_ms", x.model_gap_ms, "ms");
  return m;
}

// Latency and CPU time are not among them: on a shared host both follow the
// host's load for minutes at a time (README.md, "Calibration"). They are
// the per-layer client.*, runtime.cpu_us_per_op and sim.cpu_us_per_cmd.
Metrics e2e_metrics(double setup_s, double peak_rss_mb) {
  return {{"setup_s", setup_s, "s"}, {"peak_rss_mb", peak_rss_mb, "MB"}};
}

// Longest stretch of [from, to] in which no write completed.
double longest_write_gap_s(const History& h, std::int64_t from, std::int64_t to) {
  std::vector<std::int64_t> done;
  for (const Op& op : h.ops) {
    if (op.kind == OpKind::kPut && op.status == OpStatus::kDone &&
        op.done_ns >= from && op.done_ns <= to && op.phase != Phase::kDrain) {
      done.push_back(op.done_ns);
    }
  }
  std::sort(done.begin(), done.end());
  std::int64_t prev = from, gap = 0;
  for (std::int64_t t : done) {
    gap = std::max(gap, t - prev);
    prev = t;
  }
  gap = std::max(gap, to - prev);
  return static_cast<double>(gap) / 1e9;
}

RunOutput run_cluster(const Workload& w, const Options& o, bool traced,
                      std::size_t span_pid) {
  const Phases ph = phases(o);
  WorkDir work(o.out);
  ClusterOptions copt;
  copt.node_bin = o.node_bin;
  copt.durable = w.durable;
  copt.trace_sample = traced ? 1 : 0;

  std::vector<double> setup_times;
  std::unique_ptr<Cluster> cluster;
  std::vector<crsm::net::Socket> conns;
  for (int i = 0; i < ph.setups; ++i) {
    for (int attempt = 0;; ++attempt) {
      cluster.reset();
      copt.dir = work.path() + "/boot-" + std::to_string(i) + "-" +
                 std::to_string(attempt);
      cluster = std::make_unique<Cluster>(copt);
      try {
        setup_times.push_back(boot(*cluster, &conns));
        break;
      } catch (const crsm::net::NetError& e) {
        // A probed port can be taken before the node binds it: retry on
        // fresh ports, then give up.
        if (attempt == 2) throw;
        std::fprintf(stderr, "crsm_bench: boot failed, retrying: %s\n", e.what());
      }
    }
  }

  GenPlan plan;
  plan.fixed_start_ns = static_cast<std::int64_t>(ph.warmup_s * 1e9);
  plan.fixed_end_ns = plan.fixed_start_ns + static_cast<std::int64_t>(ph.fixed_s * 1e9);
  plan.capacity_start_ns = plan.fixed_end_ns + kQuietGapNs;
  plan.capacity_end_ns =
      plan.capacity_start_ns + static_cast<std::int64_t>(ph.capacity_s * 1e9);
  plan.rate = o.rate > 0 ? o.rate : w.rate;
  plan.read_fraction = w.read_fraction;
  plan.seed = o.seed;
  plan.epoch_ns = mono_ns() + 1'000'000;
  Generator gen(plan, std::move(conns));
  gen.start();

  // Orchestration: window-start scrape, the fault schedule, 1 Hz scrapes
  // when traced, window-end scrape.
  ServerWindow sw;
  std::vector<Scrape> start(kReplicas);
  std::vector<ProcSample> pstart(kReplicas);
  std::vector<double> cpu_s(kReplicas, 0);
  // Peak RSS of the processes that served from the start of the window,
  // and separately of a restarted one: its peak is set by WAL replay and
  // catch-up, which vary with where the kill fell.
  std::uint64_t hwm_kb = 0, restarted_hwm_kb = 0;
  bool restarted = false;
  auto close_segment = [&](std::size_t r) {
    const Scrape s = parse_prometheus(cluster->scrape(r));
    add_delta(sw.delta, s, start[r]);
    sw.pending_max = std::max(sw.pending_max, series(s, "crsm_proto_pending"));
    const ProcSample p = cluster->sample(r);
    cpu_s[r] += static_cast<double>(p.cpu_ticks - pstart[r].cpu_ticks) *
                seconds_per_tick();
    std::uint64_t& peak =
        restarted && r == kRestartedReplica ? restarted_hwm_kb : hwm_kb;
    peak = std::max(peak, p.hwm_kb);
  };

  sleep_until(plan.epoch_ns + plan.fixed_start_ns);
  for (std::size_t r = 0; r < kReplicas; ++r) {
    start[r] = parse_prometheus(cluster->scrape(r));
    pstart[r] = cluster->sample(r);
  }
  const std::int64_t fixed_ns = plan.fixed_end_ns - plan.fixed_start_ns;
  std::int64_t kill_at = -1, restart_at = -1, spawned_at = -1;
  ExtraLayers x;
  if (w.restart) {
    // Every commit stalls from the kill until the restarted replica has
    // caught up (about a second after it boots). The outage is kept to an
    // eighth of the window so that the stalled requests stay well short of
    // half: p50_ms then sits at a moderate percentile of the healthy
    // latencies rather than in their noisy tail.
    kill_at = plan.fixed_start_ns + fixed_ns / 3;
    restart_at = kill_at + std::min<std::int64_t>(2'000'000'000, fixed_ns / 8);
  }
  std::int64_t next_scrape = plan.fixed_start_ns + 1'000'000'000;
  for (;;) {
    std::int64_t next = plan.fixed_end_ns;
    if (traced) next = std::min(next, next_scrape);
    if (kill_at >= 0) next = std::min(next, kill_at);
    if (restart_at >= 0 && kill_at < 0) next = std::min(next, restart_at);
    if (next >= plan.fixed_end_ns) break;
    sleep_until(plan.epoch_ns + next);
    if (next == kill_at) {
      // The replica dies with none of its own requests in flight: killing it
      // amid its own proposals can leave the replicas with different
      // executed sequences, a recovery bug (README.md, "Known issue") that
      // would fail such runs at random.
      if (!gen.retire(kRestartedReplica, mono_ns() + 1'000'000'000)) {
        std::fprintf(stderr, "crsm_bench: replica %zu still had requests in flight at the kill\n",
                     kRestartedReplica);
      }
      close_segment(kRestartedReplica);
      cluster->kill9(kRestartedReplica);
      kill_at = -1;
    } else if (next == restart_at) {
      spawned_at = gen.rel_now();
      cluster->spawn(kRestartedReplica);
      restarted = true;
      crsm::net::Socket s = cluster->connect_client(
          kRestartedReplica, mono_ns() + 15'000'000'000);
      x.boot_s = static_cast<double>(gen.rel_now() - spawned_at) / 1e9;
      gen.hand_over(kRestartedReplica, std::move(s));
      start[kRestartedReplica] = Scrape{};
      pstart[kRestartedReplica] = ProcSample{};
      restart_at = -1;
    } else {
      for (std::size_t r = 0; r < kReplicas; ++r) {
        if (!cluster->running(r)) continue;
        const Scrape s = parse_prometheus(cluster->scrape(r));
        sw.pending_max = std::max(sw.pending_max, series(s, "crsm_proto_pending"));
      }
      next_scrape += 1'000'000'000;
    }
  }
  sleep_until(plan.epoch_ns + plan.fixed_end_ns);
  for (std::size_t r = 0; r < kReplicas; ++r) close_segment(r);
  gen.join();

  RunOutput out;
  for (std::size_t r = 0; r < kReplicas; ++r) {
    if (!cluster->running(r)) {
      out.violations.push_back("replica " + std::to_string(r) +
                               " exited during the run:\n" + cluster->log_tail(r));
    }
  }
  // Convergence: once idle, every replica has executed the same commands.
  std::vector<ReplicaTotals> totals(kReplicas);
  std::vector<Scrape> final_scrape(kReplicas);
  if (out.violations.empty()) {
    const std::int64_t deadline = mono_ns() + 10'000'000'000;
    for (;;) {
      bool agree = true;
      for (std::size_t r = 0; r < kReplicas; ++r) {
        final_scrape[r] = parse_prometheus(cluster->scrape(r));
        totals[r] = {static_cast<std::uint64_t>(series(final_scrape[r], "crsm_executed_total")),
                     static_cast<std::uint64_t>(series(final_scrape[r], "crsm_kv_keys"))};
        agree = agree && totals[r].executed == totals[0].executed &&
                totals[r].kv_keys == totals[0].kv_keys;
      }
      if (agree || mono_ns() > deadline) break;
      sleep_until(mono_ns() + 20'000'000);
    }
  }
  const ReadBack rb = gen.read_back(10'000);
  const History& h = gen.history();
  for (std::string& v : check_history(h, kKeys)) out.violations.push_back(std::move(v));
  for (std::string& v : check_convergence(h, kKeys, rb, totals)) {
    out.violations.push_back(std::move(v));
  }

  // Client-side numbers: latency of the requests due in the fixed-rate
  // window, from due time to reply; per-op costs over the requests completed in it (the span the
  // server counters cover); capacity as the completions in the capacity
  // window over its length; the generator's lateness per half-second slice
  // of the fixed-rate window.
  std::vector<double> wlat, rlat, late_us;
  std::vector<std::vector<double>> late_slices(static_cast<std::size_t>(
      (plan.fixed_end_ns - plan.fixed_start_ns + kLateSliceNs - 1) / kLateSliceNs));
  double ops = 0, capacity_ops = 0;
  for (const Op& op : h.ops) {
    if (op.phase != Phase::kDrain && !op.resend) ++out.attempted;
    if (op.phase != Phase::kDrain && op.status == OpStatus::kTimeout) ++out.failed;
    if (op.status == OpStatus::kDone && op.phase != Phase::kDrain) {
      if (op.done_ns >= plan.fixed_start_ns && op.done_ns < plan.fixed_end_ns) ++ops;
      if (op.done_ns >= plan.capacity_start_ns && op.done_ns < plan.capacity_end_ns) {
        ++capacity_ops;
      }
    }
    if (op.phase != Phase::kFixed) continue;
    if (!op.resend && op.sent_ns >= 0) {
      late_us.push_back(static_cast<double>(op.sent_ns - op.due_ns) / 1e3);
      late_slices[static_cast<std::size_t>((op.due_ns - plan.fixed_start_ns) / kLateSliceNs)]
          .push_back(late_us.back());
    }
    if (op.status != OpStatus::kDone) continue;
    const double ms = static_cast<double>(op.done_ns - op.due_ns) / 1e6;
    (op.kind == OpKind::kPut ? wlat : rlat).push_back(ms);
  }
  double cpu_total = 0, cpu_max = 0;
  for (double c : cpu_s) {
    cpu_total += c;
    cpu_max = std::max(cpu_max, c);
  }
  const GenStats& gs = gen.stats();
  out.e2e = e2e_metrics(quantile(setup_times, 0.5),
                        static_cast<double>(hwm_kb) * 1024.0 / 1e6);
  x.capacity_ops_s = capacity_ops * 1e9 / static_cast<double>(plan.capacity_end_ns -
                                                               plan.capacity_start_ns);
  x.restarted_rss_mb = static_cast<double>(restarted_hwm_kb) * 1024.0 / 1e6;

  sw.ops = ops;
  sw.window_s = static_cast<double>(gs.wall_fixed_ns) / 1e9;
  sw.cpu_us_per_op = ops > 0 ? cpu_total * 1e6 / ops : 0;
  sw.cpu_share_max = cpu_total > 0 ? cpu_max / cpu_total : 0;
  if (traced) {
    x.replay = run_replays(h, work.path(),
                           series(sw.delta, "crsm_storage_syncs_total") > 0
                               ? series(sw.delta, "crsm_storage_appends_total") /
                                     series(sw.delta, "crsm_storage_syncs_total")
                               : 1);
  }
  if (w.restart) {
    const std::int64_t first = gs.first_reply_after_handover_ns[kRestartedReplica];
    if (first >= 0 && spawned_at >= 0) {
      x.first_commit_s = static_cast<double>(first - spawned_at) / 1e9;
    }
    x.catchup_rounds = series(final_scrape[kRestartedReplica],
                              "crsm_proto_catchup_rounds_total");
    x.catchup_commits = series(final_scrape[kRestartedReplica],
                               "crsm_proto_catchup_commits_total");
  }
  x.unavailable_s = longest_write_gap_s(h, plan.fixed_start_ns, plan.fixed_end_ns);
  x.write_p50_ms = quantile(wlat, 0.5);
  x.write_p99_ms = quantile(wlat, 0.99);
  x.write_p999_ms = quantile(wlat, 0.999);
  x.read_p50_ms = quantile(rlat, 0.5);
  x.read_p99_ms = quantile(rlat, 0.99);
  x.overhead_us_mean = wlat.empty()
                           ? 0
                           : mean(wlat) * 1e3 - hist_mean(sw.delta, "crsm_commit_total_us");
  x.error_frac = out.attempted > 0 ? static_cast<double>(out.failed) /
                                         static_cast<double>(out.attempted)
                                   : 0;
  std::vector<double> slice_p99;
  for (const std::vector<double>& s : late_slices) {
    if (!s.empty()) slice_p99.push_back(quantile(s, 0.99));
  }
  x.late_us_p99 = quantile(slice_p99, 0.5);
  x.late_ms_max = late_us.empty() ? 0 : *std::max_element(late_us.begin(), late_us.end()) / 1e3;
  x.gen_cpu_share_fixed = gs.wall_fixed_ns > 0
                              ? static_cast<double>(gs.cpu_fixed_ns) /
                                    static_cast<double>(gs.wall_fixed_ns)
                              : 0;
  x.gen_cpu_share = gs.wall_capacity_ns > 0
                        ? static_cast<double>(gs.cpu_capacity_ns) /
                              static_cast<double>(gs.wall_capacity_ns)
                        : 0;
  x.failovers = static_cast<double>(gs.failovers);
  x.resends = static_cast<double>(gs.resends);
  out.layers = layer_metrics(sw, x);

  if (x.late_us_p99 > kMaxLateP99Us && x.gen_cpu_share_fixed > kMinLateGenCpuShare) {
    out.invalid = "the generator ran late: p99 lateness " + fmt(x.late_us_p99) +
                  " us > " + fmt(kMaxLateP99Us) +
                  " us in the median half second of the fixed-rate window, while it used " +
                  fmt(x.gen_cpu_share_fixed) + " of a core (over " +
                  fmt(kMinLateGenCpuShare) + ")";
  } else if (x.gen_cpu_share > kMaxGenCpuShare) {
    out.invalid = "the generator used " + fmt(x.gen_cpu_share) +
                  " of a core in the capacity window (limit " +
                  fmt(kMaxGenCpuShare) + ")";
  }
  if (traced) add_spans(h, span_pid);
  cluster->stop_all();
  return out;
}

// paper_wan5: the paper's Figure 1 setup on the simulator. Five EC2 sites
// (CA, VA, IR, JP, SG), balanced load, 40 closed-loop clients per replica
// with think time U(0, 80) ms, 64 B puts, 2 ms clock skew, CLOCKTIME every
// 5 ms. Latencies are in simulated milliseconds.
RunOutput run_sim(const Options& o) {
  crsm::LatencyExperimentOptions opt;
  opt.matrix = crsm::ec2_matrix().submatrix({0, 1, 2, 3, 4});
  opt.workload.clients_per_replica = 40;
  opt.workload.think_min_ms = 0.0;
  opt.workload.think_max_ms = 80.0;
  opt.workload.payload_bytes = 64;
  opt.seed = o.seed;
  opt.warmup_s = 2.0;
  opt.clock_skew_ms = 2.0;
  opt.jitter_ms = 0.5;
  const auto factory = crsm::clock_rsm_factory(opt.matrix.size());

  // The experiment repeats on one seed until --seconds have passed (at least
  // twice), each repetition after a set-up of its own: building the world
  // and running it through the warmup. Every repetition must give the same
  // result. The host's load only ever adds time to this identical work, so
  // CPU per command comes from the fastest repetition. Peak RSS is read
  // after the first one, before later ones can add allocator growth.
  opt.duration_s = o.smoke ? 20.0 : 50.0;
  crsm::LatencyExperimentOptions setup_opt = opt;
  setup_opt.duration_s = 0;
  const std::int64_t measure_until =
      mono_ns() + static_cast<std::int64_t>((o.smoke ? 0 : o.seconds) * 1e9);
  RunOutput out;
  std::vector<double> setup_times, walls, cpus;
  crsm::LatencyExperimentResult first;
  double peak_rss_mb = 0;
  while (walls.size() < 2 || mono_ns() < measure_until) {
    std::int64_t t0 = mono_ns();
    (void)crsm::run_latency_experiment(setup_opt, factory);
    setup_times.push_back(static_cast<double>(mono_ns() - t0) / 1e9);
    t0 = mono_ns();
    const double cpu0 = thread_cpu_s();
    crsm::LatencyExperimentResult res = crsm::run_latency_experiment(opt, factory);
    cpus.push_back(thread_cpu_s() - cpu0);
    walls.push_back(static_cast<double>(mono_ns() - t0) / 1e9);
    if (walls.size() == 1) {
      first = std::move(res);
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      peak_rss_mb = static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
    } else if (res.total_commands != first.total_commands ||
               res.messages_sent != first.messages_sent ||
               res.aggregate().mean() != first.aggregate().mean()) {
      out.violations.push_back("the simulator is not deterministic: run " +
                               std::to_string(walls.size() - 1) +
                               " differs from run 0");
    }
  }

  std::vector<double> samples;
  for (const crsm::LatencyStats& s : first.per_replica) {
    samples.insert(samples.end(), s.samples().begin(), s.samples().end());
  }
  const bool exact = std::all_of(first.per_replica.begin(), first.per_replica.end(),
                                 [](const crsm::LatencyStats& s) { return s.exact(); });
  const crsm::LatencyStats all = first.aggregate();
  const double p50 = exact ? quantile(samples, 0.5) : all.percentile(50);
  const double cmds = static_cast<double>(first.total_commands);
  const double wall = quantile(walls, 0.5);
  out.attempted = first.total_commands;
  out.e2e = e2e_metrics(quantile(setup_times, 0.5), peak_rss_mb);

  ExtraLayers x;
  x.sim_cpu_us_per_cmd = cmds > 0 ? quantile(cpus, 0) * 1e6 / cmds : 0;
  const crsm::LatencyModel model(opt.matrix);
  double gap = 0;
  for (std::size_t i = 0; i < first.per_replica.size(); ++i) {
    gap += std::abs(first.per_replica[i].mean() - model.clock_rsm_balanced(i));
  }
  x.model_gap_ms = gap / static_cast<double>(first.per_replica.size());
  x.sim_msgs_per_cmd = cmds > 0 ? static_cast<double>(first.messages_sent) / cmds : 0;
  x.sim_cmds_per_wall_s = wall > 0 ? cmds / wall : 0;
  x.sim_commit_mean_ms = all.mean();
  x.sim_wall_s = wall;
  x.write_p50_ms = p50;
  x.write_p99_ms = all.percentile(99);
  x.write_p999_ms = all.percentile(99.9);
  out.layers = layer_metrics(ServerWindow{}, x);
  return out;
}

void print_table(const char* title, const Metrics& m) {
  std::printf("%s\n", title);
  for (const Metric& x : m) {
    std::printf("  %-32s %14.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
}

// The per-layer metrics a user looks at first, printed with every run:
// client latency and the CPU spent per operation.
Metrics headline(const Metrics& layers) {
  Metrics out;
  for (const Metric& m : layers) {
    if ((m.name.rfind("client.", 0) == 0 && m.unit == "ms") ||
        m.name == "runtime.cpu_us_per_op" || m.name == "sim.cpu_us_per_cmd") {
      out.push_back(m);
    }
  }
  return out;
}

std::string result_json(const RunOutput& r, const Metrics& m) {
  std::string s = "{\"correct\": ";
  s += r.violations.empty() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    s += (i ? ", \"" : "\"") + m[i].name + "\": {\"value\": " + fmt(m[i].value) +
         ", \"unit\": \"" + m[i].unit + "\"}";
  }
  return s + "}}";
}

std::string find_node_bin() {
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) return "";
  const std::filesystem::path dir = std::filesystem::path(std::string(self, n)).parent_path();
  for (const auto& cand : {dir / "tools" / "crsm_node", dir / ".." / "tools" / "crsm_node"}) {
    if (::access(cand.c_str(), X_OK) == 0) return cand.string();
  }
  return "";
}

Options parse_args(int argc, char** argv) {
  Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
      };
      if (a == "--workload") {
        o.workload = next();
      } else if (a == "--seed") {
        o.seed = std::stoull(next());
      } else if (a == "--seconds") {
        o.seconds = std::stod(next());
        if (!(o.seconds >= 1)) usage(argv[0]);
      } else if (a == "--trace") {
        const std::string t = next();
        if (t != "0" && t != "1") usage(argv[0]);
        o.trace = t == "1";
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--self-test") {
        o.self_test = true;
      } else if (a == "--rate") {
        o.rate = std::stod(next());
        if (!(o.rate > 0)) usage(argv[0]);
      } else if (a == "--node-bin") {
        o.node_bin = next();
      } else if (a == "--out") {
        o.out = next();
      } else {
        std::fprintf(stderr, "unknown flag %s\n", a.c_str());
        usage(argv[0]);
      }
    }
  } catch (const std::exception& e) {  // stoull/stod on malformed numbers
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    usage(argv[0]);
  }
  if (!o.self_test && o.workload.empty()) usage(argv[0]);
  return o;
}

// One workload: the untraced run, or with --trace the untraced run and the
// traced run. Prints the table and the JSON line; returns the exit code.
int run_workload(const Workload& w, std::size_t index, const Options& o) {
  std::printf("== %s (seed %llu)\n", w.name, static_cast<unsigned long long>(o.seed));
  std::fflush(stdout);
  RunOutput out = w.sim ? run_sim(o) : run_cluster(w, o, false, index + 1);
  // The end-to-end and headline metrics of both runs, for the overhead table.
  Metrics untraced_view, traced_view;
  if (o.trace && !w.sim) {
    RunOutput traced = run_cluster(w, o, true, index + 1);
    g_trace_events.push_back("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                             std::to_string(index + 1) + ",\"args\":{\"name\":\"" +
                             w.name + "\"}}");
    for (std::string& v : out.violations) traced.violations.push_back(std::move(v));
    if (traced.invalid.empty()) traced.invalid = out.invalid;
    untraced_view = out.e2e;
    for (Metric& m : headline(out.layers)) untraced_view.push_back(std::move(m));
    traced_view = traced.e2e;
    for (Metric& m : headline(traced.layers)) traced_view.push_back(std::move(m));
    traced.e2e = std::move(out.e2e);
    out = std::move(traced);
  }
  for (const std::string& v : out.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  if (!out.violations.empty()) {
    std::printf("%s\n", result_json(out, o.trace ? out.layers : out.e2e).c_str());
    return 1;
  }
  // An invalid run's numbers describe the generator, so none is printed.
  if (!out.invalid.empty()) {
    std::printf("INVALID: %s\n", out.invalid.c_str());
    std::printf("{\"valid\": false, \"reason\": \"%s\"}\n", out.invalid.c_str());
    return 3;
  }
  if (!traced_view.empty()) {
    std::printf("tracing overhead (untraced -> traced)\n");
    for (std::size_t i = 0; i < untraced_view.size(); ++i) {
      const double a = untraced_view[i].value, b = traced_view[i].value;
      std::printf("  %-32s %14.6g -> %-14.6g %+.1f%%\n", untraced_view[i].name.c_str(),
                  a, b, a != 0 ? (b - a) / a * 100 : 0.0);
    }
  }
  print_table("end to end", out.e2e);
  print_table(o.trace ? "per layer" : "latency and CPU (reported, not gated)",
              o.trace ? out.layers : headline(out.layers));
  std::printf("%s\n", result_json(out, o.trace ? out.layers : out.e2e).c_str());
  return 0;
}

}  // namespace
}  // namespace crsm_bench

int main(int argc, char** argv) {
  using namespace crsm_bench;
  Options o = parse_args(argc, argv);
  if (o.self_test) return run_self_test();

  std::vector<std::size_t> chosen;
  for (std::size_t i = 0; i < std::size(kWorkloads); ++i) {
    if (o.workload == "all" || o.workload == kWorkloads[i].name) chosen.push_back(i);
  }
  if (chosen.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    usage(argv[0]);
  }
  // One generator thread and one connection per replica, each needing a
  // core of its own beside the nodes'.
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (static_cast<long>(kReplicas) > nproc) {
    std::fprintf(stderr, "crsm_bench: %zu connections need at least %zu cores, have %ld\n",
                 kReplicas, kReplicas, nproc);
    return 2;
  }
  if (o.node_bin.empty()) o.node_bin = find_node_bin();
  if (::access(o.node_bin.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "crsm_bench: crsm_node not found (build it, or pass --node-bin)\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(o.out, ec);

  int rc = 0;
  try {
    for (std::size_t i : chosen) {
      const int r = run_workload(kWorkloads[i], i, o);
      if (r != 0 && (rc == 0 || r == 1)) rc = r;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crsm_bench: %s\n", e.what());
    return 2;
  }
  if (!g_trace_events.empty()) {
    const std::string path = o.out + "/trace.json";
    write_trace(path);
    std::fprintf(stderr, "trace: %s (%zu events)\n", path.c_str(),
                 g_trace_events.size());
  }
  return rc;
}
