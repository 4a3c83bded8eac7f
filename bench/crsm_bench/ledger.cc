#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/message.h"
#include "generator.h"
#include "kv/kv_store.h"
#include "storage/command_log.h"

namespace crsm_bench {

Scrape parse_prometheus(std::string_view text) {
  Scrape out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string_view::npos) continue;
    const std::string value(line.substr(sp + 1));
    out[std::string(line.substr(0, sp))] = std::strtod(value.c_str(), nullptr);
  }
  return out;
}

void add_delta(Scrape& acc, const Scrape& end, const Scrape& start) {
  for (const auto& [name, v] : end) {
    const auto it = start.find(name);
    acc[name] += v - (it == start.end() ? 0.0 : it->second);
  }
}

double series(const Scrape& s, const std::string& name) {
  const auto it = s.find(name);
  return it == s.end() ? 0.0 : it->second;
}

double hist_quantile(const Scrape& s, const std::string& hist, double q,
                     double floor_le) {
  const std::string prefix = hist + "_bucket{le=\"";
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative count)
  for (const auto& [name, v] : s) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string le = name.substr(prefix.size(), name.size() - prefix.size() - 2);
    buckets.emplace_back(le == "+Inf" ? std::numeric_limits<double>::infinity()
                                      : std::strtod(le.c_str(), nullptr),
                         v);
  }
  std::sort(buckets.begin(), buckets.end());
  double base = 0;
  double lower = 0;
  for (const auto& [le, cum] : buckets) {
    if (le <= floor_le) {
      base = cum;
      lower = le;
    }
  }
  const double total = buckets.empty() ? 0 : buckets.back().second - base;
  if (total <= 0) return 0;
  const double target = q * total;
  double prev = 0;
  for (const auto& [le, cum] : buckets) {
    if (le <= floor_le) continue;
    const double c = cum - base;
    if (c >= target && c > prev) {
      if (std::isinf(le)) return lower;
      return lower + (le - lower) * (target - prev) / (c - prev);
    }
    prev = c;
    lower = le;
  }
  return lower;
}

double hist_mean(const Scrape& s, const std::string& hist) {
  const double n = series(s, hist + "_count");
  return n > 0 ? series(s, hist + "_sum") / n : 0;
}

void add_server_layers(Metrics& out, const ServerWindow& w) {
  const Scrape& d = w.delta;
  auto v = [&](const char* name) { return series(d, name); };
  auto per_op = [&](const char* name) { return w.ops > 0 ? v(name) / w.ops : 0; };
  auto ratio = [&](const char* num, const char* den) {
    return v(den) > 0 ? v(num) / v(den) : 0;
  };
  auto add = [&](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };

  add("net.passes_per_op", per_op("crsm_loop_passes_total"), "count");
  add("net.busy_us_per_op", per_op("crsm_loop_busy_us_sum"), "us");
  add("net.io_dispatch_us_per_op", per_op("crsm_loop_io_dispatch_us_sum"), "us");
  add("net.poll_wait_us_per_op", per_op("crsm_loop_poll_wait_us_sum"), "us");
  add("net.cmds_per_pass_mean", hist_mean(d, "crsm_loop_cmds_per_pass"), "count");

  add("transport.msgs_per_op", per_op("crsm_transport_messages_sent_total"), "count");
  add("transport.bytes_per_op", per_op("crsm_transport_bytes_sent_total"), "B");
  add("transport.encodes_per_op", per_op("crsm_transport_encode_calls_total"), "count");
  add("transport.flushes_per_op", per_op("crsm_transport_wire_flushes_total"), "count");
  add("transport.frames_per_flush",
      ratio("crsm_transport_frames_flushed_total", "crsm_transport_wire_flushes_total"),
      "count");
  add("transport.wire_flush_us_per_op", per_op("crsm_loop_wire_flush_us_sum"), "us");

  add("clockrsm.protocol_us_per_op", per_op("crsm_loop_protocol_us_sum"), "us");
  add("clockrsm.prepares_per_op", per_op("crsm_proto_prepares_sent_total"), "count");
  add("clockrsm.clock_waits_per_op", per_op("crsm_proto_clock_waits_total"), "count");
  add("clockrsm.ack_us_p50", hist_quantile(d, "crsm_stage_ack_us", 0.5), "us");
  add("clockrsm.stability_us_p50", hist_quantile(d, "crsm_stage_stability_us", 0.5), "us");
  add("clockrsm.stability_us_p99", hist_quantile(d, "crsm_stage_stability_us", 0.99), "us");
  add("clockrsm.clocktimes_per_s",
      w.window_s > 0 ? v("crsm_proto_clocktimes_sent_total") / w.window_s : 0, "1/s");
  add("clockrsm.read_wait_us_p50", hist_quantile(d, "crsm_read_wait_us", 0.5), "us");
  add("clockrsm.read_wait_us_p99", hist_quantile(d, "crsm_read_wait_us", 0.99), "us");
  add("clockrsm.pending_max", w.pending_max, "count");

  add("storage.fsync_us_p50", hist_quantile(d, "crsm_loop_fsync_us", 0.5, 1), "us");
  add("storage.fsync_us_p99", hist_quantile(d, "crsm_loop_fsync_us", 0.99, 1), "us");
  add("storage.wal_us_p50", hist_quantile(d, "crsm_stage_wal_us", 0.5), "us");
  add("storage.held_msgs_per_op", per_op("crsm_storage_held_messages_total"), "count");
  add("storage.syncs_per_op", per_op("crsm_storage_syncs_total"), "count");
  add("storage.appends_per_sync",
      ratio("crsm_storage_appends_total", "crsm_storage_syncs_total"), "count");

  add("runtime.cmds_per_prepare",
      ratio("crsm_batch_cmds_total", "crsm_batch_submissions_total"), "count");
  add("runtime.queue_us_p50", hist_quantile(d, "crsm_stage_queue_us", 0.5), "us");
  add("runtime.execute_us_p50", hist_quantile(d, "crsm_stage_execute_us", 0.5), "us");
  add("runtime.reply_us_p50", hist_quantile(d, "crsm_stage_reply_us", 0.5), "us");
  const double total = hist_mean(d, "crsm_commit_total_us");
  double stages = 0;
  for (const char* stage : {"queue", "broadcast", "wal", "ack", "stability",
                            "execute", "reply"}) {
    stages += hist_mean(d, std::string("crsm_stage_") + stage + "_us");
  }
  add("runtime.commit_total_us_mean", total, "us");
  add("runtime.stage_sum_us_mean", stages, "us");
  add("runtime.unattributed_us", total - stages, "us");
  add("runtime.cpu_us_per_op", w.cpu_us_per_op, "us");
  add("runtime.cpu_share_max", w.cpu_share_max, "ratio");
}

namespace {

volatile std::uint64_t g_sink = 0;  // keeps replayed results observable

double elapsed_ns(std::int64_t since) {
  return static_cast<double>(mono_ns() - since);
}

constexpr int kReps = 9;
constexpr std::size_t kReplayCmds = 20'000;

}  // namespace

ReplayResult run_replays(const History& h, const std::string& wal_dir,
                         double appends_per_sync) {
  std::vector<crsm::Command> cmds;
  std::vector<crsm::Command> puts;
  for (std::size_t i = 0; i < h.ops.size() && cmds.size() < kReplayCmds; ++i) {
    const Op& op = h.ops[i];
    if (op.phase == Phase::kDrain || op.sent_ns < 0) continue;
    crsm::Command c;
    c.client = op.client + 1;
    c.seq = op.seq;
    c.payload = op.kind == OpKind::kPut ? put_payload(op.key, write_id(i))
                                        : get_payload(op.key);
    if (op.kind == OpKind::kPut) puts.push_back(c);
    cmds.push_back(std::move(c));
  }
  ReplayResult r;

  // The messages of one committed write at n = 3: the client request, the
  // origin's PREPARE, two PREPAREOKs and the client reply.
  std::vector<crsm::Message> mix;
  crsm::Tick tick = 1'000'000;
  for (const crsm::Command& c : puts) {
    const crsm::Timestamp ts{++tick, 0};
    crsm::Message req;
    req.type = crsm::MsgType::kClientRequest;
    req.cmd = c;
    crsm::Message prep;
    prep.type = crsm::MsgType::kPrepare;
    prep.from = 0;
    prep.ts = ts;
    prep.cmd = c;
    crsm::Message ok;
    ok.type = crsm::MsgType::kPrepareOk;
    ok.ts = ts;
    ok.clock_ts = tick + 7;
    crsm::Message reply;
    reply.type = crsm::MsgType::kClientReply;
    reply.cmd.client = c.client;
    reply.cmd.seq = c.seq;
    reply.blob = std::string("OK");
    mix.push_back(req);
    mix.push_back(prep);
    ok.from = 1;
    mix.push_back(ok);
    ok.from = 2;
    mix.push_back(ok);
    mix.push_back(reply);
  }
  if (!mix.empty()) {
    std::vector<double> enc, dec;
    std::string buf;
    for (int rep = 0; rep < kReps; ++rep) {
      buf.clear();
      const std::int64_t t0 = mono_ns();
      for (const crsm::Message& m : mix) m.encode(&buf);
      enc.push_back(elapsed_ns(t0) / static_cast<double>(mix.size()));
      const std::int64_t t1 = mono_ns();
      std::size_t pos = 0;
      std::uint64_t sum = 0;
      while (pos < buf.size()) {
        sum += crsm::Message::decode_stream_view(buf, &pos).cmd.seq;
      }
      dec.push_back(elapsed_ns(t1) / static_cast<double>(mix.size()));
      g_sink = g_sink + sum;
    }
    r.encode_ns_per_msg = quantile(enc, 0.5);
    r.decode_ns_per_msg = quantile(dec, 0.5);
  }

  if (!cmds.empty()) {
    std::vector<double> apply;
    for (int rep = 0; rep < kReps; ++rep) {
      crsm::KvStore store;
      std::uint64_t bytes = 0;
      const std::int64_t t0 = mono_ns();
      for (const crsm::Command& c : cmds) bytes += store.apply(c).size();
      apply.push_back(elapsed_ns(t0) / static_cast<double>(cmds.size()));
      g_sink = g_sink + bytes;
    }
    r.kv_apply_ns_per_op = quantile(apply, 0.5);
  }

  if (!puts.empty()) {
    const std::string path = wal_dir + "/replay.log";
    {
      crsm::FileLog log(path);
      const std::size_t batch = static_cast<std::size_t>(
          std::max(1.0, std::round(appends_per_sync)));
      std::vector<double> syncs;
      for (int i = 0; i < 200; ++i) {
        const std::int64_t t0 = mono_ns();
        for (std::size_t b = 0; b < batch; ++b) {
          const crsm::Command& c = puts[(i * batch + b) % puts.size()];
          log.append(crsm::LogRecord::prepare({++tick, 0}, c));
        }
        log.sync();
        syncs.push_back(elapsed_ns(t0) / 1e3);
      }
      r.wal_sync_us_p50 = quantile(syncs, 0.5);
    }
    std::remove(path.c_str());
  }
  return r;
}

}  // namespace crsm_bench
