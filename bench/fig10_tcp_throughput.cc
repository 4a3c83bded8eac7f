// Figure 10 (extension, not in the paper): io-backend / coalescing /
// durability sweep on one host.
//
// All rows host the same protocol reactors and the same encode-once /
// zero-copy wire pipeline over loopback TCP; what changes is how bytes
// reach the kernel:
//
//   tcp epoll|uring    — real loopback TCP sockets, driven by the epoll or
//                        the io_uring event-loop backend.
//   coalesce off|on    — per-pass wire coalescing: frames queued to one
//                        peer during an event-loop pass leave as a single
//                        writev (epoll) or a single SENDMSG SQE (uring).
//
// Reported per row: committed cmds/s, the per-command wire counters (msgs,
// flushes — flushes/cmd < msgs/cmd is coalescing at work), the achieved
// frames-per-flush batching factor, and on uring the SQEs handed over per
// io_uring_enter. The msgs/bytes/encodes counters must match across rows
// (same protocol, same framing) while throughput shows what each kernel
// path costs.
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
//
// io_uring rows are skipped (with a note) when the kernel refuses the
// backend; the factory's epoll fallback never silently pollutes a "uring"
// row.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/latency_experiment.h"
#include "harness/report.h"
#include "net/event_loop.h"
#include "runtime/throughput.h"

int main(int argc, char** argv) {
  using namespace crsm;
  using namespace crsm::bench;

  const BenchArgs args = parse_bench_args(argc, argv);  // fixed-size workload
  JsonResult jr("fig10_tcp_throughput");
  const bool uring_ok = net::uring_available();
  jr.add("uring_available", uring_ok ? 1.0 : 0.0);
  if (!args.json) {
    std::printf("Figure 10: io-backend x coalescing x durability sweep, "
                "three replicas,\n100B commands, closed-loop clients\n");
    if (!uring_ok) {
      std::printf("(io_uring unavailable on this kernel: uring rows "
                  "skipped)\n");
    }
    std::printf("\n");
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

  // One sweep point: which backend drives the links, coalescing on or off,
  // and whether the nodes log to a WAL. Coalescing "on" uses the
  // default 256 KiB per-pass budget; "off" flushes every send immediately
  // (the pre-coalescing behaviour).
  struct Row {
    const char* transport;  // tcp | tcp+wal
    net::IoBackend backend = net::IoBackend::kEpoll;
    bool coalesce = true;
    bool all_protos = true;  // false: Clock-RSM only (the durable rows)
    std::size_t batch = 1;   // protocol-level command batching (1 = off)
  };
  const std::vector<Row> rows = {
      {"tcp", net::IoBackend::kEpoll, false, true},
      {"tcp", net::IoBackend::kEpoll, true, true},
      {"tcp", net::IoBackend::kUring, false, false},
      {"tcp", net::IoBackend::kUring, true, true},
      {"tcp+wal", net::IoBackend::kEpoll, true, false},
      {"tcp+wal", net::IoBackend::kEpoll, true, false, 4},
      {"tcp+wal", net::IoBackend::kEpoll, true, false, 16},
      {"tcp+wal", net::IoBackend::kEpoll, true, false, 64},
      {"tcp+wal", net::IoBackend::kUring, true, false},
      {"tcp+wal", net::IoBackend::kUring, true, false, 4},
      {"tcp+wal", net::IoBackend::kUring, true, false, 16},
      {"tcp+wal", net::IoBackend::kUring, true, false, 64},
  };

  Table t({"protocol", "transport", "backend", "coalesce", "batch", "kcmds/s",
           "cmds/prep", "msgs/cmd", "flushes/cmd", "frames/flush",
           "sqes/submit"});
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
      const bool uring_row = row.backend == net::IoBackend::kUring;
      const char* backend_label = net::io_backend_name(row.backend);
      // Batch-1 rows keep their pre-sweep key names; batch rows add _bN.
      const std::string prefix =
          metric_key(p.label) + "_" + metric_key(row.transport) + "_" +
          metric_key(backend_label) + "_" +
          (row.coalesce ? "coalesce_" : "nocoalesce_") +
          (row.batch > 1 ? "b" + std::to_string(row.batch) + "_" : "");
      if (uring_row && !uring_ok) {
        if (!args.json) {
          t.add_row({p.label, row.transport, backend_label,
                     row.coalesce ? "on" : "off", std::to_string(row.batch),
                     "skipped", "-", "-", "-", "-", "-"});
        }
        continue;
      }

      TcpClusterOptions copt;
      copt.io_backend = row.backend;
      copt.max_coalesce_bytes = row.coalesce ? 256 * 1024 : 0;
      opt.max_batch_cmds = row.batch;
      std::string dir;
      if (is_wal) {
        dir = (std::filesystem::temp_directory_path() /
               ("fig10_wal_" + std::to_string(::getpid()) + "_" +
                metric_key(backend_label) + "_b" + std::to_string(row.batch)))
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
      if (uring_row) jr.add(prefix + "sqes_per_submit", r.sqes_per_submit);
      if (!r.stages.empty()) {
        add_stage_breakdown(jr, prefix, r.stages,
                            args.json ? nullptr : &stage_t,
                            std::string(p.label) + " " + row.transport + "/" +
                                backend_label);
      }
      t.add_row({p.label, row.transport, backend_label,
                 row.coalesce ? "on" : "off", std::to_string(row.batch),
                 fmt_count(r.kops_per_sec, 2),
                 fmt_count(r.cmds_per_prepare, 2),
                 fmt_count(r.msgs_per_cmd, 2), fmt_count(r.flushes_per_cmd, 2),
                 fmt_count(r.frames_per_flush, 2),
                 uring_row ? fmt_count(r.sqes_per_submit, 2) : "-"});

      // The durable acceptance ratio tracks the matching-backend tcp row.
      if (!is_wal && row.backend == net::IoBackend::kEpoll && row.coalesce &&
          row.batch == 1) {
        tcp_baseline = r.kops_per_sec;
      }
      if (is_wal && row.backend == net::IoBackend::kEpoll && row.batch == 1) {
        wal_kops = r.kops_per_sec;
      }
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
              "same frames, fewer kernel handoffs. The uring rows\nadd SQE "
              "batching on top (sqes/submit ~ SQEs per io_uring_enter). The "
              "tcp+wal\nrows (FileLog + per-pass group commit) must stay "
              "within ~3x of the matching\ntcp row — the durable "
              "deployment's acceptance bound. The batch rows sweep\n"
              "protocol-level command batching (cmds/prep is the achieved "
              "depth): durable\nthroughput should climb with batch size as "
              "PREPARE/ack/WAL costs amortize.\n");
  return 0;
}
