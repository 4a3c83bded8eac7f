// Real sockets, not simulation: run the replicated KV store on an
// in-process loopback TCP cluster and measure throughput, like the paper's
// local-cluster experiment (Section VI-D).
//
// Build & run:  ./build/examples/local_cluster_throughput [payload_bytes]
#include <cstdio>
#include <cstdlib>

#include "harness/latency_experiment.h"
#include "runtime/throughput.h"

using namespace crsm;

int main(int argc, char** argv) {
  const std::size_t payload = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 100;

  ThroughputOptions opt;
  opt.num_replicas = 3;
  opt.clients_per_replica = 16;
  opt.payload_bytes = payload;
  opt.warmup_s = 0.3;
  opt.duration_s = 1.5;

  std::printf("Three replicas over loopback TCP, %zu closed-loop "
              "clients/replica, %zuB commands\n\n",
              opt.clients_per_replica, payload);

  struct Entry {
    const char* label;
    TcpCluster::ProtocolFactory factory;
  };
  const Entry entries[] = {
      {"Clock-RSM", clock_rsm_factory(opt.num_replicas)},
      {"Paxos (leader r0)", paxos_factory(opt.num_replicas, 0, false)},
      {"Mencius-bcast", mencius_factory(opt.num_replicas)},
  };
  for (const Entry& e : entries) {
    const ThroughputResult r = run_throughput(opt, e.factory);
    std::printf("%-18s %8.1f kops/s wall, %8.1f kops/s cluster-equivalent, "
                "busiest replica %4.1f%% of CPU, %.1f MB/s wire\n",
                e.label, r.kops_per_sec, r.kops_per_sec_bottleneck,
                r.max_cpu_share * 100.0, r.mb_per_sec_wire);
  }
  std::printf("\n'cluster-equivalent' divides ops by the busiest replica's "
              "event-loop busy\ntime — the throughput an N-machine "
              "deployment would sustain.\n");
  return 0;
}
