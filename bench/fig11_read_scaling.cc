// Read-scaling sweep for the stability-based local read path (the repo's
// "Figure 11": read fraction x replica count, Clock-RSM on the paper's EC2
// topologies). Writes pay a replicated commit at every replica, so write
// throughput is flat-to-falling as replicas are added; local reads execute
// only at the replica that receives them, so AGGREGATE read throughput
// grows with the replica count. The >= 90/10 mixes make the contrast
// sharpest: that is the acceptance shape to check (r5 reads/s > r3 reads/s
// at mix 0.9 and 0.95).
//
// Read latency is also reported: a local read waits roughly one CLOCKTIME
// round for its stability point (one-way max latency + delta), well under
// the write's commit latency on geo links.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/latency_experiment.h"
#include "harness/report.h"
#include "util/topology.h"

int main(int argc, char** argv) {
  using namespace crsm;
  using namespace crsm::bench;

  const BenchArgs args = parse_bench_args(argc, argv);
  JsonResult jr("fig11_read_scaling");
  jr.add("seed", args.seed);
  if (!args.json) {
    std::printf("Figure 11: read scaling, Clock-RSM, EC2 topologies, 40 "
                "closed-loop clients per replica\n\n");
  }

  Table t({"replicas", "read mix", "writes/s", "reads/s", "total ops/s",
           "write p50 ms", "read p50 ms", "read p95 ms"});
  for (const std::size_t n : {std::size_t{3}, std::size_t{5}}) {
    const LatencyMatrix m = n == 3 ? ec2_matrix().submatrix({0, 1, 2})
                                   : ec2_matrix().submatrix({0, 1, 2, 3, 4});
    for (const double mix : {0.0, 0.5, 0.9, 0.95}) {
      LatencyExperimentOptions opt = paper_options(m, args.seed);
      opt.warmup_s = 1.0;
      opt.duration_s = 10.0;
      opt.workload.read_fraction = mix;
      const LatencyExperimentResult r =
          run_latency_experiment(opt, clock_rsm_factory(n));

      const double writes_s =
          static_cast<double>(r.total_commands) / opt.duration_s;
      const double reads_s =
          static_cast<double>(r.total_reads) / opt.duration_s;
      const LatencyStats w = r.aggregate();
      const LatencyStats rd = r.aggregate_reads();

      const std::string key = "r" + std::to_string(n) + "_mix" +
                              std::to_string(static_cast<int>(mix * 100));
      jr.add(key + "_writes_per_sec", writes_s);
      jr.add(key + "_reads_per_sec", reads_s);
      jr.add(key + "_ops_per_sec", writes_s + reads_s);
      if (!w.empty()) jr.add(key + "_write_p50_ms", w.percentile(50));
      if (!rd.empty()) {
        jr.add(key + "_read_p50_ms", rd.percentile(50));
        jr.add(key + "_read_p95_ms", rd.percentile(95));
      }

      t.add_row({std::to_string(n),
                 std::to_string(static_cast<int>(mix * 100)) + "% reads",
                 fmt_count(writes_s), fmt_count(reads_s),
                 fmt_count(writes_s + reads_s),
                 w.empty() ? "-" : fmt_ms(w.percentile(50)),
                 rd.empty() ? "-" : fmt_ms(rd.percentile(50)),
                 rd.empty() ? "-" : fmt_ms(rd.percentile(95))});
    }
  }

  Table stage_t({"row", "stage", "count", "p50 us", "p99 us"});
  if (args.stage_breakdown) {
    // Supplemental TCP-runtime run (3 replicas, 90 % reads, loopback): the
    // simulated sweep above has no commit-pipeline tracing, so record the
    // read path's decomposition — stability wait vs serve — from the real
    // event-loop runtime alongside it.
    ThroughputOptions topt;
    topt.num_replicas = 3;
    topt.clients_per_replica = 16;
    topt.payload_bytes = 64;
    topt.warmup_s = 0.5;
    topt.duration_s = 2.0;
    topt.read_fraction = 0.9;
    topt.stage_breakdown = true;
    const ThroughputResult tr = run_throughput(topt, clock_rsm_factory(3));
    jr.add("tcp_mix90_ops_per_sec", tr.kops_per_sec * 1000.0);
    jr.add("tcp_mix90_reads_per_sec", tr.reads_per_sec);
    add_stage_breakdown(jr, "tcp_mix90_", tr.stages,
                        args.json ? nullptr : &stage_t,
                        "clock-rsm tcp 90% reads");
  }

  print_result(args, jr, t);
  if (args.stage_breakdown && !args.json) {
    std::printf("\nTCP-runtime stage breakdown (3 replicas, 90%% reads, "
                "loopback):\n");
    stage_t.print(std::cout);
  }
  if (!args.json) {
    std::printf("\nPaper shape to check: reads/s grows 3 -> 5 replicas at "
                "the 90%% and 95%% mixes\n(each added replica serves its own "
                "clients' reads locally), while writes/s\ndoes not.\n");
  }
  return 0;
}
