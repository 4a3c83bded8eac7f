// A 3-replica crsm_node cluster on loopback, managed from outside: spawns
// the node processes, kills and restarts them, opens client connections,
// scrapes their /metrics endpoints and samples /proc/<pid>.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "common/message.h"
#include "net/frame_conn.h"
#include "net/socket.h"

namespace crsm_bench {

struct ClusterOptions {
  std::string node_bin;
  std::string dir;  // node logs, and the WALs of a durable cluster
  bool durable = false;
  std::uint32_t trace_sample = 0;  // 0: the node's default
};

struct ProcSample {
  std::int64_t cpu_ticks = 0;  // utime + stime, in clock ticks
  std::uint64_t hwm_kb = 0;    // VmHWM, peak resident set
};

// Seconds per clock tick of ProcSample::cpu_ticks.
[[nodiscard]] double seconds_per_tick();

class Cluster {
 public:
  // Probes free loopback ports; spawns nothing yet.
  explicit Cluster(ClusterOptions opt);
  // Stops every node still running and reaps it.
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Starts replica r's crsm_node; a restart reuses its ports and WAL.
  void spawn(std::size_t r);
  // SIGKILL, then reap.
  void kill9(std::size_t r);
  // SIGTERM every node, reap; SIGKILL whatever is still up after 3 s.
  void stop_all();
  [[nodiscard]] bool running(std::size_t r);

  // Connects a client to replica r and completes the hello exchange,
  // retrying until `deadline_ns` (monotonic). Throws NetError at the
  // deadline, or as soon as the replica's process has exited.
  [[nodiscard]] crsm::net::Socket connect_client(std::size_t r,
                                                 std::int64_t deadline_ns);

  // GET /metrics (Prometheus text) from replica r.
  [[nodiscard]] std::string scrape(std::size_t r);
  // /proc/<pid> CPU and peak RSS of replica r's running process.
  [[nodiscard]] ProcSample sample(std::size_t r);
  // The last lines replica r wrote to stderr, for failure reports.
  [[nodiscard]] std::string log_tail(std::size_t r) const;

 private:
  ClusterOptions opt_;
  std::vector<std::uint16_t> ports_;
  std::vector<std::uint16_t> metrics_ports_;
  std::vector<pid_t> pids_;
};

// Blocking helpers over a non-blocking socket, bounded by a monotonic
// deadline; they throw NetError when it passes.
void write_all(int fd, const std::string& bytes, std::int64_t deadline_ns);
// Reads the next framed message, buffering any bytes past it in `in`.
[[nodiscard]] crsm::Message read_message(int fd, crsm::net::FrameAssembler& in,
                                         std::int64_t deadline_ns);

}  // namespace crsm_bench
