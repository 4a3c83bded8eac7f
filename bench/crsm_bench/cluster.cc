#include "cluster.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "obs/metrics_http.h"

namespace crsm_bench {

using crsm::net::NetError;

namespace {

int remaining_ms(std::int64_t deadline_ns) {
  const std::int64_t left = deadline_ns - mono_ns();
  if (left <= 0) return 0;
  return static_cast<int>(std::min<std::int64_t>(left / 1'000'000 + 1, 60'000));
}

void wait_ready(int fd, short events, std::int64_t deadline_ns) {
  pollfd p{fd, events, 0};
  const int rc = ::poll(&p, 1, remaining_ms(deadline_ns));
  if (rc == 0) throw NetError("timed out");
  if (rc < 0 && errno != EINTR) throw NetError(std::strerror(errno));
}

void read_exact(int fd, char* buf, std::size_t n, std::int64_t deadline_ns) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, buf + got, n - got, MSG_DONTWAIT);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
    } else if (r == 0) {
      throw NetError("connection closed");
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      wait_ready(fd, POLLIN, deadline_ns);
    } else if (errno != EINTR) {
      throw NetError(std::string("recv: ") + std::strerror(errno));
    }
  }
}

}  // namespace

double seconds_per_tick() {
  return 1.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

void write_all(int fd, const std::string& bytes, std::int64_t deadline_ns) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      off += static_cast<std::size_t>(n);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      wait_ready(fd, POLLOUT, deadline_ns);
    } else if (errno != EINTR) {
      throw NetError(std::string("send: ") + std::strerror(errno));
    }
  }
}

crsm::Message read_message(int fd, crsm::net::FrameAssembler& in,
                           std::int64_t deadline_ns) {
  for (;;) {
    const std::string_view frames = in.complete_prefix();
    if (!frames.empty()) {
      std::size_t pos = 0;
      crsm::Message m = crsm::Message::decode_stream(frames, &pos);
      in.consume(pos);
      return m;
    }
    char chunk[4096];
    const ssize_t r = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (r > 0) {
      in.append(std::string_view(chunk, static_cast<std::size_t>(r)));
    } else if (r == 0) {
      throw NetError("connection closed");
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      wait_ready(fd, POLLIN, deadline_ns);
    } else if (errno != EINTR) {
      throw NetError(std::string("recv: ") + std::strerror(errno));
    }
  }
}

Cluster::Cluster(ClusterOptions opt)
    : opt_(std::move(opt)), pids_(kReplicas, -1) {
  if (::mkdir(opt_.dir.c_str(), 0700) != 0 && errno != EEXIST) {
    throw NetError("mkdir " + opt_.dir + ": " + std::strerror(errno));
  }
  // Hold every probe listener open at once so the ports are distinct.
  std::vector<crsm::net::Socket> probes;
  for (std::size_t i = 0; i < 2 * kReplicas; ++i) {
    probes.push_back(crsm::net::tcp_listen("127.0.0.1", 0));
    const std::uint16_t port = crsm::net::local_port(probes.back().fd());
    (i < kReplicas ? ports_ : metrics_ports_).push_back(port);
  }
}

Cluster::~Cluster() { stop_all(); }

void Cluster::spawn(std::size_t r) {
  std::string peers;
  for (std::size_t i = 0; i < kReplicas; ++i) {
    if (i > 0) peers += ",";
    peers += "127.0.0.1:" + std::to_string(ports_[i]);
  }
  std::vector<std::string> args = {opt_.node_bin,
                                   "--id",
                                   std::to_string(r),
                                   "--peers",
                                   peers,
                                   "--metrics-port",
                                   std::to_string(metrics_ports_[r]),
                                   "--stats-every",
                                   "0"};
  if (opt_.durable) {
    args.push_back("--log-dir");
    args.push_back(opt_.dir + "/node-" + std::to_string(r));
  }
  if (opt_.trace_sample != 0) {
    args.push_back("--trace-sample");
    args.push_back(std::to_string(opt_.trace_sample));
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const std::string log = opt_.dir + "/node-" + std::to_string(r) + ".log";
  const pid_t parent = ::getpid();

  // vfork, not fork: a restart happens mid-run, and fork would copy the
  // page tables of the generator's history, then stall the generator on
  // copy-on-write faults. The child only makes system calls before exec.
  const pid_t pid = ::vfork();
  if (pid < 0) throw NetError(std::string("vfork: ") + std::strerror(errno));
  if (pid == 0) {
    // The node must not outlive the benchmark, however the benchmark ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0600);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
    }
    ::close(STDIN_FILENO);
    if (::syscall(SYS_close_range, 3U, ~0U, 0U) != 0) {
      for (int i = 3; i < 1024; ++i) ::close(i);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pids_[r] = pid;
}

bool Cluster::running(std::size_t r) {
  if (pids_[r] <= 0) return false;
  int status = 0;
  if (::waitpid(pids_[r], &status, WNOHANG) == 0) return true;
  pids_[r] = -1;
  return false;
}

void Cluster::kill9(std::size_t r) {
  if (pids_[r] <= 0) return;
  ::kill(pids_[r], SIGKILL);
  int status = 0;
  while (::waitpid(pids_[r], &status, 0) < 0 && errno == EINTR) {
  }
  pids_[r] = -1;
}

void Cluster::stop_all() {
  for (pid_t pid : pids_) {
    if (pid > 0) ::kill(pid, SIGTERM);
  }
  const std::int64_t deadline = mono_ns() + 3'000'000'000;
  for (std::size_t r = 0; r < pids_.size(); ++r) {
    while (running(r) && mono_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    kill9(r);
  }
}

crsm::net::Socket Cluster::connect_client(std::size_t r,
                                          std::int64_t deadline_ns) {
  for (;;) {
    if (!running(r)) {
      throw NetError("replica " + std::to_string(r) + " exited:\n" +
                     log_tail(r));
    }
    bool in_progress = false;
    crsm::net::Socket s =
        crsm::net::tcp_connect("127.0.0.1", ports_[r], &in_progress);
    try {
      if (!s.valid()) throw NetError("refused");
      const std::int64_t step = std::min(deadline_ns, mono_ns() + 1'000'000'000);
      if (in_progress) {
        wait_ready(s.fd(), POLLOUT, step);
        if (crsm::net::connect_result(s.fd()) != 0) throw NetError("refused");
      }
      crsm::net::set_tcp_nodelay(s.fd());
      write_all(s.fd(), crsm::net::encode_hello(crsm::net::kClientHello), step);
      char hello[8];
      read_exact(s.fd(), hello, sizeof(hello), step);
      std::uint32_t id = 0;
      if (!crsm::net::parse_hello(std::string_view(hello, 8), &id) || id != r) {
        throw NetError("bad hello from replica " + std::to_string(r));
      }
      return s;
    } catch (const NetError&) {
      if (mono_ns() > deadline_ns) {
        throw NetError("replica " + std::to_string(r) +
                       " did not answer a client hello:\n" + log_tail(r));
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

std::string Cluster::scrape(std::size_t r) {
  // The node serves /metrics from its event loop, behind whatever backlog
  // an overload has queued there.
  return crsm::obs::http_get("127.0.0.1", metrics_ports_[r], "/metrics",
                             10'000);
}

ProcSample Cluster::sample(std::size_t r) {
  ProcSample s;
  if (pids_[r] <= 0) return s;
  const std::string proc = "/proc/" + std::to_string(pids_[r]);
  std::ifstream stat(proc + "/stat");
  std::string line;
  std::getline(stat, line);
  const std::size_t paren = line.rfind(')');
  if (paren != std::string::npos) {
    // Fields after "(comm)": state is field 3, utime 14, stime 15.
    std::istringstream in(line.substr(paren + 2));
    std::string field;
    std::int64_t utime = 0, stime = 0;
    for (int i = 3; i <= 15 && in >> field; ++i) {
      if (i == 14) utime = std::stoll(field);
      if (i == 15) stime = std::stoll(field);
    }
    s.cpu_ticks = utime + stime;
  }
  std::ifstream status(proc + "/status");
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      s.hwm_kb = std::stoull(line.substr(6));
      break;
    }
  }
  return s;
}

std::string Cluster::log_tail(std::size_t r) const {
  std::ifstream in(opt_.dir + "/node-" + std::to_string(r) + ".log");
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string all = ss.str();
  return all.size() > 1500 ? all.substr(all.size() - 1500) : all;
}

}  // namespace crsm_bench
