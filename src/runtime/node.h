// NodeRuntime: one replica of a real TCP deployment.
//
// Hosts any ReplicaProtocol (Clock-RSM, Paxos, Mencius) over a TcpTransport
// on a single epoll EventLoop thread: inbound frames, protocol timers,
// client requests and in-process submits all execute there, so protocol
// code keeps the strictly single-threaded reactor model it has under the
// simulator (ProtocolEnv contract).
//
// Clients reach the node through the same listening port as peers (the
// hello preamble tells them apart) speaking kClientRequest/kClientReply
// frames; the node routes each reply to the socket that carried the
// request. The crsm_node binary is a thin CLI around this class, and
// TcpCluster (tcp_cluster.h) boots N of them on loopback for tests.
//
// Durability (NodeConfig::storage): with a log directory configured the
// node runs on a FileLog WAL with group commit — protocol durability
// requests (CommandLog::sync) accumulate over one event-loop pass, the
// first send made while a sync is owed raises the transport's flush fence
// (TcpTransport::raise_fence), and the loop's pass-end hook issues a single
// fdatasync and then lifts it, so the pass-end wire flush releases every
// held frame. PREPAREOK therefore never precedes the durability point it
// acknowledges, at one fsync per pass instead of one per append. On boot
// the node restores the checkpoint (if any) into the state machine and the
// hosted protocol replays the WAL; Clock-RSM with catchup_on_recovery then
// fetches whatever it missed from live peers (see clock_rsm.h). Durable or
// not, the node checkpoints every StorageOptions::checkpoint_every commits
// and drops the covered log prefix, so its memory tracks its state and
// in-flight work, not its history.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clock/system_clock.h"
#include "common/batch.h"
#include "common/command.h"
#include "common/message.h"
#include "common/types.h"
#include "net/event_loop.h"
#include "obs/loop_profiler.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "obs/trace.h"
#include "rsm/protocol.h"
#include "rsm/state_machine.h"
#include "shard/shard_router.h"
#include "storage/replica_storage.h"
#include "transport/tcp_transport.h"

namespace crsm {

// Observability knobs (src/obs). The registry itself always exists — its
// hot-path cost is a handful of relaxed atomics — these only control the
// optional machinery around it.
struct NodeObsOptions {
  // Serve GET /metrics and /metrics.json from the node's loop thread.
  // metrics_port 0 binds an ephemeral port, readable via
  // NodeRuntime::metrics_port() (tests); crsm_node passes a fixed one.
  bool metrics_http = false;
  std::string metrics_host = "127.0.0.1";
  std::uint16_t metrics_port = 0;
  // Commit-pipeline tracing: stamp every Nth origin command through the
  // pipeline stages (obs/trace.h). 0 disables tracing entirely (the
  // protocol sees a null tracer and pays nothing).
  std::uint32_t trace_sample_every = 64;
  // Traced commands slower than this print a rate-limited breakdown line.
  std::uint64_t trace_slow_us = 0;
  // Per-pass event-loop phase profiling (obs/loop_profiler.h).
  bool profile_loop = true;
};

struct NodeConfig {
  ReplicaId id = 0;
  TcpTransport::Options transport;
  // storage.dir empty = volatile MemLog (PR 3 behavior); set = durable,
  // restartable node. See StorageOptions.
  StorageOptions storage;
  // Protocol-level command batching: client write commands arriving within
  // one event-loop pass accumulate and are replicated as one batch-envelope
  // command (one PREPARE, one timestamp/ack round, one WAL record). 1
  // disables batching (every command submits alone); a batch is cut early
  // when it reaches max_batch_cmds commands or adding a command would push
  // it past max_batch_bytes of payload (0 = no byte cap; a single oversized
  // command always ships, alone). Reads are never batched.
  std::size_t max_batch_cmds = 1;
  std::size_t max_batch_bytes = 256 * 1024;
  // Sharded deployments: this replica serves replica group `group` of
  // `num_groups` (ShardRouter key space partitioning). With num_groups > 1
  // the node (a) rejects client commands whose key the router assigns to
  // another group — kClientRedirect carrying the owner instead of a silent
  // misapply — and (b) stamps its metrics with a `group` label so the N
  // registries of one process scrape as disjoint Prometheus series.
  // num_groups == 1 is the pre-sharding behavior: no checks, no label.
  ShardId group = 0;
  std::size_t num_groups = 1;
  // Pin the loop thread to this CPU core (-1 = unpinned). Multi-group
  // processes pin one group per core so groups scale instead of timeslicing.
  int pin_core = -1;
  NodeObsOptions obs;
};

class NodeRuntime final : private ProtocolEnv {
 public:
  using ProtocolFactory =
      std::function<std::unique_ptr<ReplicaProtocol>(ProtocolEnv&, ReplicaId)>;
  using StateMachineFactory = std::function<std::unique_ptr<StateMachine>()>;
  // Runs on the node's loop thread when a locally originated command
  // executes; in-process harnesses (TcpCluster) unblock their clients here.
  using ReplyHook = std::function<void(const Command&)>;
  // Runs on the loop thread for every executed command (any origin), in
  // execution order — the basis for agreement/linearizability checks.
  using CommitHook = std::function<void(const Command&, Timestamp ts, bool local)>;
  // Runs on the loop thread when a read submitted at this node completes
  // (locally via the protocol's stability-gated read path, or — for
  // protocols without one — through the replicated log).
  using ReadHook = std::function<void(const Command&, std::string_view output)>;

  // Binds the listening socket immediately: with transport.listen_port == 0
  // the kernel-assigned port is readable via port() before start().
  NodeRuntime(NodeConfig cfg, ProtocolFactory protocol_factory,
              StateMachineFactory sm_factory);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  [[nodiscard]] std::uint16_t port() const { return transport_.port(); }
  [[nodiscard]] ReplicaId id() const { return cfg_.id; }
  [[nodiscard]] ShardId group() const { return cfg_.group; }
  // Client commands bounced with kClientRedirect because their key belongs
  // to another group (always 0 when num_groups == 1).
  [[nodiscard]] std::uint64_t wrong_group_rejections() const {
    return wrong_group_rejections_.load(std::memory_order_relaxed);
  }

  void set_reply_hook(ReplyHook hook) { reply_hook_ = std::move(hook); }
  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }
  void set_read_hook(ReadHook hook) { read_hook_ = std::move(hook); }

  // Spawns the loop thread, starts accepting/dialing (peers[id] is this
  // node's own address) and calls the protocol's start().
  void start(std::vector<TcpPeer> peers);
  // Stops the loop, closes every connection and joins. Idempotent.
  void stop();

  // Thread-safe: submits a client command at this replica (the in-process
  // equivalent of a kClientRequest).
  void submit(Command cmd);

  // Thread-safe: submits a read-only command at this replica (the
  // in-process equivalent of a kClientRead). Served locally once stability
  // passes the read timestamp when the protocol supports it, else through
  // the log; either way the read hook fires with the output.
  void submit_read(Command cmd);

  // Commands this replica's state reflects, including those covered by a
  // restored or installed checkpoint: equal on every caught-up replica.
  [[nodiscard]] std::uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }
  // Protocol-batching counters: write commands accepted into the submit
  // path vs. submissions handed to the protocol (each = one PREPARE round
  // at the origin). cmds / submissions is the achieved cmds-per-PREPARE.
  struct BatchStats {
    std::uint64_t cmds = 0;
    std::uint64_t submissions = 0;
  };
  [[nodiscard]] BatchStats batch_stats() const {
    return {batch_cmds_.load(std::memory_order_relaxed),
            batch_submissions_.load(std::memory_order_relaxed)};
  }
  [[nodiscard]] std::uint64_t reads_served() const {
    return reads_served_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] TransportStats transport_stats() const {
    return transport_.stats();
  }
  [[nodiscard]] StorageStats storage_stats() const { return storage_.stats(); }
  // True when boot found prior durable state (the node is a restart).
  [[nodiscard]] bool recovering() const { return storage_.recovering(); }
  [[nodiscard]] const TcpTransport& transport() const { return transport_; }
  // Digest of the replica's state machine. While running, executes on the
  // loop thread (posted, blocking the caller); once stopped, reads
  // directly. Call from the thread that controls start()/stop().
  [[nodiscard]] std::uint64_t state_digest();

  // One unified metrics snapshot: registry values plus every folded stats
  // struct (transport, storage, io ring, protocol, state machine). The
  // registry's collectors touch loop-thread-only state, so while running
  // this posts to the loop thread (blocking the caller, like
  // state_digest()); once stopped it reads directly.
  [[nodiscard]] obs::Snapshot metrics_snapshot();
  // The /metrics listening port (0 when obs.metrics_http is off). Readable
  // before start(), like port().
  [[nodiscard]] std::uint16_t metrics_port() const {
    return metrics_http_ ? metrics_http_->port() : 0;
  }

 private:
  // --- ProtocolEnv (loop thread only) ---
  [[nodiscard]] ReplicaId self() const override { return cfg_.id; }
  [[nodiscard]] CommandLog& log() override { return storage_.log(); }
  [[nodiscard]] Timestamp recovery_floor() const override {
    return storage_.recovery_floor();
  }
  [[nodiscard]] std::string encoded_checkpoint() const override {
    return storage_.encoded_checkpoint();
  }
  void send(ReplicaId to, Message m) override;
  void send_encoded(ReplicaId to, std::string frame) override;
  void multicast(const std::vector<ReplicaId>& tos, Message m) override;
  [[nodiscard]] Tick clock_now() override { return clock_.now_us(); }
  void schedule_after(Tick delay_us, std::function<void()> fn) override;
  void deliver(const Command& cmd, Timestamp ts, bool local_origin) override;
  void deliver_read(const Command& cmd, Timestamp read_ts) override;
  void install_checkpoint(std::string_view blob) override;
  [[nodiscard]] obs::CommitTracer* tracer() override { return tracer_.get(); }

  void finish_read(const Command& cmd, const std::string& output);
  // num_groups > 1 only: if the router assigns cmd's key to another group,
  // bounce it with kClientRedirect (naming the owner) and return true.
  bool reject_wrong_group(std::uint64_t conn, const Command& cmd);
  void collect_metrics(obs::Registry& r);  // loop-thread collector body
  void on_peer_message(const Message& m);
  void on_client_message(std::uint64_t conn, const Message& m);
  void on_client_closed(std::uint64_t conn);

  // Group commit: called before every send. Raises the transport's flush
  // fence while the WAL owes a sync and counts the sends it holds; the
  // loop's pass-end hook fsyncs once, then lifts the fence.
  void fence_if_owed();
  void flush_durability();
  // Replies to a networked client (dropped if it has gone away).
  void reply_to_client(std::uint64_t conn, Message reply);

  // Protocol batching: buffers a client write for the pass's batch (or
  // submits it straight through when batching is off); the batch is cut at
  // the caps and at pass end, and each cut is submitted by submit_cut().
  void enqueue_write(Command cmd);
  void submit_cut(const std::vector<Command>& members, Command submission);
  // The shared per-command tail of deliver(): apply, count, hooks, reply.
  void apply_and_reply(const Command& cmd, Timestamp ts, bool local_origin);

  NodeConfig cfg_;
  // Log + checkpoint; outlives proto_, which holds a reference to the log.
  ReplicaStorage storage_;
  obs::Registry registry_;  // before everything that registers metrics
  net::EventLoop loop_;  // before transport_ (uses it)
  TcpTransport transport_;
  std::unique_ptr<obs::CommitTracer> tracer_;  // before proto_ (caches it)
  std::unique_ptr<obs::LoopProfiler> profiler_;
  std::unique_ptr<obs::MetricsHttpServer> metrics_http_;
  SystemClock clock_;
  std::unique_ptr<StateMachine> sm_;
  std::unique_ptr<ReplicaProtocol> proto_;
  ReplyHook reply_hook_;
  CommitHook commit_hook_;
  ReadHook read_hook_;
  std::uint64_t held_this_pass_ = 0;  // sends behind the fence this pass

  // Loop-thread-only batch accumulator (cut at the caps / pass end).
  BatchAccumulator batch_;
  obs::LatencyHistogram* batch_size_hist_ = nullptr;
  std::atomic<std::uint64_t> batch_cmds_{0};
  std::atomic<std::uint64_t> batch_submissions_{0};

  // client id -> client connection that most recently requested with it.
  std::unordered_map<ClientId, std::uint64_t> client_routes_;
  // Reads riding the replicated log (protocols without a local read path):
  // their delivery must answer with kClientReadReply, not kClientReply.
  std::set<std::pair<ClientId, std::uint64_t>> logged_reads_;

  std::thread thread_;
  bool started_ = false;
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> reads_served_{0};
  std::atomic<std::uint64_t> wrong_group_rejections_{0};
};

}  // namespace crsm
