// Figure 10 (extension, not in the paper): coalescing / durability /
// batching sweep on one host.
//
// All rows host the same protocol reactors and the same encode-once /
// zero-copy wire pipeline over loopback TCP; what changes is how bytes
// reach the kernel:
//
//   coalesce off|on    — per-pass wire coalescing: frames queued to one
//                        peer during an event-loop pass leave as a single
//                        writev ("on", the default 256 KiB budget), or
//                        each frame leaves in its own sendmsg ("off", a
//                        budget of 0).
//
// Reported per row: committed cmds/s, the per-command wire counters (msgs,
// flushes — flushes/cmd < msgs/cmd is coalescing at work) and the achieved
// frames-per-flush batching factor. The msgs/bytes/encodes counters must
// match across rows (same protocol, same framing) while throughput shows
// what each kernel path costs.
//
// The wal rows add durability: the same TCP cluster on a FileLog WAL with
// per-pass group commit. The acceptance bound for the durable runtime is
// cmds/s within 3x of the MemLog tcp row — group commit is what makes that
// hold (one fdatasync per event-loop pass, not per PREPARE).
//
// The batch rows sweep protocol-level command batching on the durable
// cluster (--max-batch-cmds 4/16/64): client writes arriving within one
// event-loop pass replicate as a single envelope — one PREPARE, one ack
// round, one WAL record inside the same group-commit fsync. Reported as
// cmds/PREPARE (the achieved batch depth); throughput should climb with
// depth until envelope size stops being the bottleneck.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/latency_experiment.h"
#include "harness/report.h"
#include "runtime/throughput.h"

int main(int argc, char** argv) {
  using namespace crsm;
  using namespace crsm::bench;

  const BenchArgs args = parse_bench_args(argc, argv);  // fixed-size workload
  JsonResult jr("fig10_tcp_throughput");
  if (!args.json) {
    std::printf("Figure 10: coalescing x durability x batching sweep, "
                "three replicas,\n100B commands, closed-loop clients\n\n");
  }

  struct Proto {
    const char* label;
    TcpCluster::ProtocolFactory factory;
  };
  const std::size_t n = 3;
  const std::vector<Proto> protos = {
      {"Clock-RSM", clock_rsm_factory(n)},
      {"Paxos", paxos_factory(n, 0, false)},
  };

  // One sweep point: coalescing on or off, and whether the nodes log to a
  // WAL. Coalescing "on" uses the default 256 KiB per-pass budget; "off"
  // is a budget of 0, which flushes every frame as it is queued.
  struct Row {
    const char* transport;  // tcp | tcp+wal
    bool coalesce = true;
    bool all_protos = true;  // false: Clock-RSM only (the durable rows)
    std::size_t batch = 1;   // protocol-level command batching (1 = off)
  };
  const std::vector<Row> rows = {
      {"tcp", false, true},          {"tcp", true, true},
      {"tcp+wal", true, false},      {"tcp+wal", true, false, 4},
      {"tcp+wal", true, false, 16},  {"tcp+wal", true, false, 64},
  };

  Table t({"protocol", "transport", "coalesce", "batch", "kcmds/s",
           "cmds/prep", "msgs/cmd", "flushes/cmd", "frames/flush"});
  Table stage_t({"row", "stage", "count", "p50 us", "p99 us"});
  for (const Proto& p : protos) {
    ThroughputOptions opt;
    opt.num_replicas = n;
    opt.clients_per_replica = 16;
    opt.payload_bytes = 100;
    opt.warmup_s = 0.5;
    opt.duration_s = 2.0;
    opt.stage_breakdown = args.stage_breakdown;

    double tcp_baseline = 0.0, wal_kops = 0.0;
    for (const Row& row : rows) {
      const bool is_wal = std::string(row.transport) == "tcp+wal";
      if (!row.all_protos && std::string(p.label) != "Clock-RSM") continue;
      // Batch-1 rows have no batch segment; batch rows add _bN.
      const std::string prefix =
          metric_key(p.label) + "_" + metric_key(row.transport) + "_" +
          (row.coalesce ? "coalesce_" : "nocoalesce_") +
          (row.batch > 1 ? "b" + std::to_string(row.batch) + "_" : "");

      TcpClusterOptions copt;
      copt.max_coalesce_bytes = row.coalesce ? 256 * 1024 : 0;
      opt.max_batch_cmds = row.batch;
      std::string dir;
      if (is_wal) {
        dir = (std::filesystem::temp_directory_path() /
               ("fig10_wal_" + std::to_string(::getpid()) + "_b" +
                std::to_string(row.batch)))
                  .string();
        copt.log_dir = dir;
      }
      const ThroughputResult r = run_throughput(opt, p.factory, copt);
      opt.max_batch_cmds = 1;
      if (!dir.empty()) std::filesystem::remove_all(dir);

      jr.add(prefix + "kcmds_per_sec", r.kops_per_sec);
      jr.add(prefix + "msgs_per_cmd", r.msgs_per_cmd);
      jr.add(prefix + "bytes_per_cmd", r.bytes_per_cmd);
      jr.add(prefix + "encodes_per_cmd", r.encodes_per_cmd);
      jr.add(prefix + "flushes_per_cmd", r.flushes_per_cmd);
      add_batching_columns(jr, prefix, r);
      if (!r.stages.empty()) {
        add_stage_breakdown(jr, prefix, r.stages,
                            args.json ? nullptr : &stage_t,
                            std::string(p.label) + " " + row.transport);
      }
      t.add_row({p.label, row.transport, row.coalesce ? "on" : "off",
                 std::to_string(row.batch), fmt_count(r.kops_per_sec, 2),
                 fmt_count(r.cmds_per_prepare, 2),
                 fmt_count(r.msgs_per_cmd, 2), fmt_count(r.flushes_per_cmd, 2),
                 fmt_count(r.frames_per_flush, 2)});

      // The durable acceptance ratio tracks the coalescing tcp row.
      if (!is_wal && row.coalesce && row.batch == 1) {
        tcp_baseline = r.kops_per_sec;
      }
      if (is_wal && row.batch == 1) wal_kops = r.kops_per_sec;
    }
    if (tcp_baseline > 0 && wal_kops > 0) {
      jr.add(metric_key(p.label) + "_wal_slowdown", tcp_baseline / wal_kops);
    }
  }
  if (args.json) {
    jr.print(std::cout);
    return 0;
  }
  t.print(std::cout);
  if (args.stage_breakdown) {
    std::printf("\nCommit-pipeline stage breakdown (sampled, per-stage "
                "latency at the origin):\n");
    stage_t.print(std::cout);
  }

  std::printf("\nShape to check: per-command msgs/bytes/encodes match across "
              "rows (same\nprotocol, same frames). Coalescing shows up as "
              "flushes/cmd well under msgs/cmd\nand frames/flush > 1 — the "
              "same frames, fewer kernel handoffs. The tcp+wal\nrows (FileLog + per-pass group commit) must stay "
              "within ~3x of the matching\ntcp row — the durable "
              "deployment's acceptance bound. The batch rows sweep\n"
              "protocol-level command batching (cmds/prep is the achieved "
              "depth): durable\nthroughput should climb with batch size as "
              "PREPARE/ack/WAL costs amortize.\n");
  return 0;
}
