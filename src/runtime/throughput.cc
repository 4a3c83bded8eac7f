#include "runtime/throughput.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <iterator>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kv/kv_store.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace crsm {

namespace {

// One outstanding request per client; the reply hook flips the flag.
struct Completion {
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t done_upto = 0;  // highest seq acknowledged

  void complete(std::uint64_t seq) {
    {
      std::lock_guard<std::mutex> lk(mu);
      done_upto = std::max(done_upto, seq);
    }
    cv.notify_one();
  }

  // Returns false on timeout (cluster stopping).
  bool wait_for_seq(std::uint64_t seq, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lk(mu);
    return cv.wait_for(lk, timeout, [&] { return done_upto >= seq; });
  }
};

void fill_per_cmd(ThroughputResult* res, const TransportStats& before,
                  const TransportStats& after, double secs) {
  res->mb_per_sec_wire =
      static_cast<double>(after.bytes_sent - before.bytes_sent) / secs / 1e6;
  if (res->total_ops == 0) return;
  const double ops = static_cast<double>(res->total_ops);
  res->msgs_per_cmd =
      static_cast<double>(after.messages_sent - before.messages_sent) / ops;
  res->bytes_per_cmd =
      static_cast<double>(after.bytes_sent - before.bytes_sent) / ops;
  res->encodes_per_cmd =
      static_cast<double>(after.encode_calls - before.encode_calls) / ops;
  const std::uint64_t flushes = after.wire_flushes - before.wire_flushes;
  const std::uint64_t frames = after.frames_flushed - before.frames_flushed;
  res->flushes_per_cmd = static_cast<double>(flushes) / ops;
  if (flushes > 0) {
    res->frames_per_flush =
        static_cast<double>(frames) / static_cast<double>(flushes);
  }
}

}  // namespace

ThroughputResult run_throughput(const ThroughputOptions& opt,
                                const TcpCluster::ProtocolFactory& factory,
                                const TcpClusterOptions& coptin) {
  TcpClusterOptions copt = coptin;
  if (opt.stage_breakdown) {
    copt.obs.trace_sample_every = 16;  // dense enough for 2 s windows
  }
  copt.max_batch_cmds = opt.max_batch_cmds;
  copt.max_batch_bytes = opt.max_batch_bytes;

  std::unordered_map<ClientId, std::unique_ptr<Completion>> completions;
  for (ReplicaId r = 0; r < opt.num_replicas; ++r) {
    if (opt.only_replica >= 0 && static_cast<int>(r) != opt.only_replica) continue;
    for (std::size_t c = 0; c < opt.clients_per_replica; ++c) {
      completions.emplace(make_client_id(r, c), std::make_unique<Completion>());
    }
  }
  const auto complete = [&completions](const Command& cmd) {
    auto it = completions.find(cmd.client);
    if (it != completions.end()) it->second->complete(cmd.seq);
  };
  // Declared after the completions its hooks use, so it stops first.
  TcpCluster cluster(opt.num_replicas, factory,
                     [] { return std::make_unique<KvStore>(); }, copt);
  cluster.set_reply_hook(
      [&complete](ReplicaId, const Command& cmd) { complete(cmd); });
  cluster.set_read_hook([&complete](ReplicaId, const Command& cmd,
                                    std::string_view) { complete(cmd); });

  // Stage histogram metric -> short stage label. The hists are cumulative
  // over the run; collected in the end-of-window snapshot while nodes live.
  static constexpr struct {
    const char* metric;
    const char* stage;
  } kStages[] = {
      {"crsm_stage_queue_us", "queue"},
      {"crsm_stage_broadcast_us", "broadcast"},
      {"crsm_stage_wal_us", "wal"},
      {"crsm_stage_ack_us", "ack"},
      {"crsm_stage_stability_us", "stability"},
      {"crsm_stage_execute_us", "execute"},
      {"crsm_stage_reply_us", "reply"},
      {"crsm_commit_total_us", "total"},
      {"crsm_read_wait_us", "read_wait"},
      {"crsm_read_total_us", "read_total"},
  };
  constexpr std::size_t kNumStages = std::size(kStages);
  std::array<StageLatency, kNumStages> stages{};

  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::atomic<std::uint64_t> measured_ops{0};
  std::atomic<std::uint64_t> measured_reads{0};

  cluster.start();

  const std::string payload =
      KvRequest::sized_put("key", opt.payload_bytes).encode();
  std::string read_payload;
  {
    KvRequest r;
    r.op = KvOp::kGet;
    r.key = "key";
    read_payload = r.encode();
  }

  std::vector<std::thread> clients;
  for (auto& [id, completion] : completions) {
    clients.emplace_back([&, id = id, comp = completion.get()] {
      const ReplicaId home = client_home(id);
      Rng rng(0x7470ull ^ id);
      std::uint64_t seq = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const bool is_read =
            opt.read_fraction > 0.0 && rng.bernoulli(opt.read_fraction);
        Command cmd;
        cmd.client = id;
        cmd.seq = ++seq;
        cmd.payload = is_read ? read_payload : payload;
        if (is_read) {
          cluster.submit_read(home, std::move(cmd));
        } else {
          cluster.submit(home, std::move(cmd));
        }
        if (!comp->wait_for_seq(seq, std::chrono::milliseconds(2000))) {
          break;  // stuck or shutting down
        }
        if (measuring.load(std::memory_order_relaxed)) {
          measured_ops.fetch_add(1, std::memory_order_relaxed);
          if (is_read) measured_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Per-replica busy time: each node's loop-profiler busy histogram sum,
  // differenced across the window. Snapshots post to the loop threads, so
  // they read consistent values while the cluster runs.
  const auto busy_us = [&cluster](ReplicaId r) -> std::uint64_t {
    const obs::Snapshot snap = cluster.node(r).metrics_snapshot();
    const obs::MetricValue* m = snap.find("crsm_loop_busy_us");
    return m == nullptr ? 0 : m->hist.sum_us;
  };
  std::vector<std::uint64_t> busy(opt.num_replicas);

  std::this_thread::sleep_for(std::chrono::duration<double>(opt.warmup_s));
  const TransportStats before = cluster.stats();
  const NodeRuntime::BatchStats bbefore = cluster.batch_stats();
  for (ReplicaId r = 0; r < opt.num_replicas; ++r) busy[r] = busy_us(r);
  measuring.store(true);
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.duration_s));
  measuring.store(false);
  const auto t1 = std::chrono::steady_clock::now();
  const TransportStats after = cluster.stats();
  const NodeRuntime::BatchStats bafter = cluster.batch_stats();
  std::uint64_t max_busy = 0, total_busy = 0;
  for (ReplicaId r = 0; r < opt.num_replicas; ++r) {
    const std::uint64_t b = busy_us(r) - busy[r];
    max_busy = std::max(max_busy, b);
    total_busy += b;
  }
  if (opt.stage_breakdown) {
    for (ReplicaId r = 0; r < opt.num_replicas; ++r) {
      const obs::Snapshot snap = cluster.node(r).metrics_snapshot();
      for (std::size_t i = 0; i < kNumStages; ++i) {
        const obs::MetricValue* m = snap.find(kStages[i].metric);
        if (m == nullptr || m->hist.count == 0) continue;
        const auto c = static_cast<double>(m->hist.count);
        stages[i].count += m->hist.count;
        stages[i].p50_us += m->hist.p50_us * c;  // weighted; divided below
        stages[i].p99_us += m->hist.p99_us * c;
      }
    }
  }

  stop.store(true);
  for (std::thread& t : clients) t.join();
  cluster.stop();

  const double secs = std::chrono::duration<double>(t1 - t0).count();
  ThroughputResult res;
  res.total_ops = measured_ops.load();
  res.kops_per_sec = static_cast<double>(res.total_ops) / secs / 1000.0;
  res.reads_per_sec = static_cast<double>(measured_reads.load()) / secs;
  if (max_busy > 0) {
    res.kops_per_sec_bottleneck = static_cast<double>(res.total_ops) /
                                  (static_cast<double>(max_busy) / 1e6) /
                                  1000.0;
    res.max_cpu_share =
        static_cast<double>(max_busy) / static_cast<double>(total_busy);
  }
  if (opt.stage_breakdown) {
    for (std::size_t i = 0; i < kNumStages; ++i) {
      if (stages[i].count == 0) continue;
      const auto c = static_cast<double>(stages[i].count);
      res.stages.push_back(StageLatency{kStages[i].stage, stages[i].count,
                                        stages[i].p50_us / c,
                                        stages[i].p99_us / c});
    }
  }
  const std::uint64_t bsubs = bafter.submissions - bbefore.submissions;
  if (bsubs > 0) {
    res.cmds_per_prepare = static_cast<double>(bafter.cmds - bbefore.cmds) /
                           static_cast<double>(bsubs);
  }
  fill_per_cmd(&res, before, after, secs);
  return res;
}

}  // namespace crsm
