// Shared helpers for the figure/table reproduction binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/latency_experiment.h"
#include "harness/report.h"
#include "runtime/throughput.h"
#include "util/topology.h"

namespace crsm::bench {

// The CLI contract every bench binary shares (micro_* excepted: those are
// google-benchmark binaries and follow its --benchmark_* conventions):
//   --seed N            re-seeds the workload/jitter RNG (default 42)
//   --json              print one flat JSON object on stdout instead of tables
//   --stage-breakdown   benches with a TCP-runtime component (fig10, fig11)
//                       additionally trace the commit pipeline and report
//                       per-stage p50/p99 (queue/broadcast/wal/ack/
//                       stability/execute/reply); ignored elsewhere
struct BenchArgs {
  std::uint64_t seed = 42;
  bool json = false;
  bool stage_breakdown = false;
};

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      const char* raw = argv[++i];
      args.seed = std::strtoull(raw, &end, 10);
      if (end == raw || *end != '\0') {
        std::fprintf(stderr, "bad --seed '%s' (want an integer)\n", raw);
        std::exit(2);
      }
    } else if (flag == "--json") {
      args.json = true;
    } else if (flag == "--stage-breakdown") {
      args.stage_breakdown = true;
    } else if (flag == "--help" || flag == "-h") {
      std::printf("usage: %s [--seed N] [--json] [--stage-breakdown]\n",
                  argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", flag.c_str());
      std::exit(2);
    }
  }
  return args;
}

// Accumulates key results and prints them as one flat JSON object — the
// entire stdout of a bench binary run with --json, so results are
// machine-scrapeable across the whole suite.
class JsonResult {
 public:
  explicit JsonResult(const std::string& bench) { add("bench", bench); }

  JsonResult& add(const std::string& key, const std::string& v) {
    std::string escaped;
    for (char c : v) {
      if (c == '"' || c == '\\') escaped.push_back('\\');
      escaped.push_back(c);
    }
    fields_.push_back("\"" + key + "\": \"" + escaped + "\"");
    return *this;
  }
  JsonResult& add(const std::string& key, const char* v) {
    return add(key, std::string(v));
  }
  JsonResult& add(const std::string& key, double v) {
    std::ostringstream os;
    os << v;
    fields_.push_back("\"" + key + "\": " + os.str());
    return *this;
  }
  JsonResult& add(const std::string& key, std::uint64_t v) {
    fields_.push_back("\"" + key + "\": " + std::to_string(v));
    return *this;
  }

  void print(std::ostream& os) const {
    os << "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      os << (i ? ", " : "") << fields_[i];
    }
    os << "}\n";
  }

 private:
  std::vector<std::string> fields_;
};

// The shared tail of every bench main: one JSON object in --json mode,
// the human-readable table otherwise.
inline void print_result(const BenchArgs& args, const JsonResult& jr,
                         const Table& t) {
  if (args.json) {
    jr.print(std::cout);
  } else {
    t.print(std::cout);
  }
}

// The batching-efficiency columns of a throughput row: protocol-level
// batching as cmds/PREPARE (client write commands per protocol submission,
// from the runtime's batch accounting) and wire coalescing as frames/flush
// (frames per kernel handoff, from TransportStats wire_flushes).
inline void add_batching_columns(JsonResult& jr, const std::string& prefix,
                                 const ThroughputResult& r) {
  jr.add(prefix + "cmds_per_prepare", r.cmds_per_prepare);
  jr.add(prefix + "frames_per_flush", r.frames_per_flush);
}

// Emits a TCP-runtime commit-pipeline stage breakdown (--stage-breakdown)
// as `<prefix>stage_<name>_{p50,p99}_us` JSON fields and, when `t` is
// given, one table row per stage.
inline void add_stage_breakdown(JsonResult& jr, const std::string& prefix,
                                const std::vector<StageLatency>& stages,
                                Table* t = nullptr,
                                const std::string& row_label = "") {
  for (const StageLatency& s : stages) {
    jr.add(prefix + "stage_" + s.stage + "_p50_us", s.p50_us);
    jr.add(prefix + "stage_" + s.stage + "_p99_us", s.p99_us);
    if (t != nullptr) {
      t->add_row({row_label, s.stage, std::to_string(s.count),
                  fmt_count(s.p50_us, 1), fmt_count(s.p99_us, 1)});
    }
  }
}

// JSON-friendly metric key: lowercase, [a-z0-9_] only ("Paxos-bcast" ->
// "paxos_bcast").
inline std::string metric_key(const std::string& label) {
  std::string key;
  for (char c : label) {
    if (c >= 'A' && c <= 'Z') {
      key.push_back(static_cast<char>(c - 'A' + 'a'));
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      key.push_back(c);
    } else if (!key.empty() && key.back() != '_') {
      key.push_back('_');
    }
  }
  return key;
}

// The paper's workload (Section VI-B): 40 clients per active replica, 64 B
// update commands, think time U(0, 80) ms, CLOCKTIME extension with
// delta = 5 ms, NTP-grade clocks.
inline LatencyExperimentOptions paper_options(LatencyMatrix m,
                                              std::uint64_t seed = 42) {
  LatencyExperimentOptions o;
  o.matrix = std::move(m);
  o.workload.clients_per_replica = 40;
  o.workload.think_min_ms = 0.0;
  o.workload.think_max_ms = 80.0;
  o.workload.payload_bytes = 64;
  o.seed = seed;
  o.warmup_s = 2.0;
  o.duration_s = 20.0;
  o.clock_skew_ms = 2.0;
  o.jitter_ms = 0.5;
  return o;
}

struct ProtocolRun {
  std::string label;
  LatencyExperimentResult result;
};

// Runs the four protocols of the paper on one scenario. `leader` applies to
// Paxos and Paxos-bcast.
inline std::vector<ProtocolRun> run_four_protocols(
    const LatencyExperimentOptions& opt, ReplicaId leader) {
  const std::size_t n = opt.matrix.size();
  std::vector<ProtocolRun> runs;
  runs.push_back({"Paxos", run_latency_experiment(
                               opt, paxos_factory(n, leader, false))});
  runs.push_back({"Mencius-bcast",
                  run_latency_experiment(opt, mencius_factory(n))});
  runs.push_back({"Paxos-bcast", run_latency_experiment(
                                     opt, paxos_factory(n, leader, true))});
  runs.push_back({"Clock-RSM",
                  run_latency_experiment(opt, clock_rsm_factory(n))});
  return runs;
}

// The shared summary tail of the CDF figures (3, 4 and 6): per-protocol
// p50/p95 at the featured replica, as JSON or as the min/p50/p95/max table
// mirroring the paper's reading of each figure.
inline void print_cdf_summary(const BenchArgs& args, const char* bench_name,
                              const std::vector<ProtocolRun>& runs,
                              std::size_t replica) {
  JsonResult jr(bench_name);
  jr.add("seed", args.seed);
  Table t({"protocol", "min", "p50", "p95", "max"});
  for (const ProtocolRun& run : runs) {
    const LatencyStats& s = run.result.per_replica[replica];
    jr.add(metric_key(run.label) + "_p50_ms", s.percentile(50));
    jr.add(metric_key(run.label) + "_p95_ms", s.percentile(95));
    t.add_row({run.label, fmt_ms(s.min()), fmt_ms(s.percentile(50)),
               fmt_ms(s.percentile(95)), fmt_ms(s.max())});
  }
  print_result(args, jr, t);
}

// Prints the per-replica average and 95th-percentile table that the paper's
// bar figures (1, 2 and 5) report.
inline void print_latency_figure(const std::vector<ProtocolRun>& runs,
                                 const std::vector<std::size_t>& sites,
                                 ReplicaId leader) {
  std::vector<std::string> headers = {"protocol"};
  for (std::size_t i = 0; i < sites.size(); ++i) {
    std::string site = ec2_site_name(sites[i]);
    if (static_cast<ReplicaId>(i) == leader) site += " (L)";
    headers.push_back(site + " avg");
    headers.push_back(site + " p95");
  }
  Table t(headers);
  for (const ProtocolRun& run : runs) {
    std::vector<std::string> row = {run.label};
    for (std::size_t i = 0; i < sites.size(); ++i) {
      const LatencyStats& s = run.result.per_replica[i];
      row.push_back(s.empty() ? "-" : fmt_ms(s.mean()));
      row.push_back(s.empty() ? "-" : fmt_ms(s.percentile(95)));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
}

}  // namespace crsm::bench
