#include "runtime/node.h"

#include <pthread.h>
#include <sched.h>

#include <cstdio>
#include <future>
#include <utility>

#include "common/batch.h"
#include "common/codec.h"
#include "common/wire_frame.h"
#include "kv/kv_store.h"

namespace crsm {

NodeRuntime::NodeRuntime(NodeConfig cfg, ProtocolFactory protocol_factory,
                         StateMachineFactory sm_factory)
    : cfg_(cfg),
      storage_(cfg.storage),
      transport_(loop_, cfg.id, cfg.transport),
      sm_(sm_factory()),
      batch_(cfg.id, cfg.max_batch_cmds, cfg.max_batch_bytes,
             [this](const std::vector<Command>& members, Command submission) {
               submit_cut(members, std::move(submission));
             }) {
  if (cfg_.num_groups > 1) {
    // Disjoint Prometheus series per group: a process scraping its N group
    // registries into one page must not collapse them into one timeline.
    registry_.set_labels("group=\"" + std::to_string(cfg_.group) + "\"");
  }
  if (cfg_.obs.trace_sample_every != 0) {
    obs::CommitTracer::Options topt;
    topt.sample_every = cfg_.obs.trace_sample_every;
    topt.slow_us = cfg_.obs.trace_slow_us;
    tracer_ = std::make_unique<obs::CommitTracer>(registry_, topt);
  }
  if (cfg_.obs.profile_loop) {
    profiler_ = std::make_unique<obs::LoopProfiler>(registry_);
    loop_.set_observer(profiler_.get());
  }
  if (cfg_.obs.metrics_http) {
    // Binds now, so an ephemeral port is readable before start().
    metrics_http_ = std::make_unique<obs::MetricsHttpServer>(
        loop_, registry_, cfg_.obs.metrics_host, cfg_.obs.metrics_port);
  }
  if (cfg_.max_batch_cmds > 1) {
    batch_size_hist_ = &registry_.histogram(
        "crsm_batch_cmds", "commands per protocol submission (batch size)");
  }
  registry_.add_collector([this](obs::Registry& r) { collect_metrics(r); });
  // The checkpoint (if any) must be in the state machine before the
  // protocol exists: start() replays the WAL only above recovery_floor().
  // The executed count resumes from the checkpoint's, so replaying the WAL
  // suffix on top lands on the count of a node that never restarted.
  if (storage_.restore_into(*sm_)) {
    executed_.store(storage_.checkpoint()->applied, std::memory_order_relaxed);
  }
  proto_ = protocol_factory(*this, cfg_.id);  // caches tracer() — after it
  transport_.register_handler([this](const Message& m) { on_peer_message(m); });
  transport_.set_client_handlers(
      [this](std::uint64_t conn, const Message& m) { on_client_message(conn, m); },
      [this](std::uint64_t conn) { on_client_closed(conn); });
  // Pass-end order matters: cut the pass's command batch first so its WAL
  // append lands inside the same fsync the durability flush issues.
  loop_.set_pass_end_hook([this] {
    batch_.cut();
    flush_durability();
  });
}

NodeRuntime::~NodeRuntime() { stop(); }

void NodeRuntime::start(std::vector<TcpPeer> peers) {
  if (started_) return;
  started_ = true;
  // All initialization that touches the loop (fd registration, protocol
  // timers) runs as the loop's first task, on the loop thread.
  loop_.post([this, peers = std::move(peers)]() mutable {
    transport_.start(std::move(peers));
    if (metrics_http_) metrics_http_->start();
    proto_->start();
  });
  thread_ = std::thread([this] { loop_.run(); });
  if (cfg_.pin_core >= 0) {
    // Affinity-pin the loop thread: each group of a multi-group process owns
    // one core, so protocol CPU scales with groups instead of timeslicing.
    // Best effort — a core count below the pin target just logs and runs
    // unpinned (CI containers routinely expose fewer cores than production).
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cfg_.pin_core, &set);
    if (pthread_setaffinity_np(thread_.native_handle(), sizeof(set), &set) !=
        0) {
      std::fprintf(stderr,
                   "crsm_node[%u]: could not pin loop thread to core %d; "
                   "running unpinned\n",
                   cfg_.id, cfg_.pin_core);
    }
  }
}

void NodeRuntime::stop() {
  if (!started_) return;
  started_ = false;
  loop_.post([this] {
    if (metrics_http_) metrics_http_->stop();
    transport_.shutdown();
  });
  loop_.stop();
  if (thread_.joinable()) thread_.join();
}

void NodeRuntime::submit(Command cmd) {
  loop_.post([this, cmd = std::move(cmd)]() mutable {
    if (tracer_) tracer_->begin(cmd.client, cmd.seq, net::EventLoop::mono_us());
    enqueue_write(std::move(cmd));
  });
}

void NodeRuntime::submit_read(Command cmd) {
  loop_.post([this, cmd = std::move(cmd)]() mutable {
    if (!proto_->supports_local_reads()) {
      logged_reads_.insert({cmd.client, cmd.seq});
    }
    if (tracer_) tracer_->begin_read(cmd.client, cmd.seq, net::EventLoop::mono_us());
    proto_->submit_read(std::move(cmd));
  });
}

std::uint64_t NodeRuntime::state_digest() {
  // Stopped (or never started): the loop thread is gone, so a posted task
  // would never run — but with no loop thread the state machine is also
  // safe to read directly.
  if (!started_) return sm_->state_digest();
  std::promise<std::uint64_t> p;
  auto f = p.get_future();
  loop_.post([this, &p] { p.set_value(sm_->state_digest()); });
  return f.get();
}

obs::Snapshot NodeRuntime::metrics_snapshot() {
  // Same posting discipline as state_digest(): the registry's collector
  // reads protocol and state-machine internals owned by the loop thread.
  if (!started_) return registry_.snapshot();
  std::promise<obs::Snapshot> p;
  auto f = p.get_future();
  loop_.post([this, &p] { p.set_value(registry_.snapshot()); });
  return f.get();
}

void NodeRuntime::collect_metrics(obs::Registry& r) {
  // Fold every externally maintained stats struct into the registry. Runs
  // on the loop thread at snapshot time; set() overwrites with the current
  // cumulative value, so scrapes stay monotone as long as the sources are.
  const obs::MetricSink sink = [&r](std::string_view name, std::uint64_t v) {
    if (name.size() > 6 && name.substr(name.size() - 6) == "_total") {
      r.counter(name).set(v);
    } else {
      r.gauge(name).set(static_cast<double>(v));
    }
  };

  const TransportStats ts = transport_stats();
  sink("crsm_transport_messages_sent_total", ts.messages_sent);
  sink("crsm_transport_messages_delivered_total", ts.messages_delivered);
  sink("crsm_transport_messages_dropped_total", ts.messages_dropped);
  sink("crsm_transport_bytes_sent_total", ts.bytes_sent);
  sink("crsm_transport_encode_calls_total", ts.encode_calls);
  sink("crsm_transport_backpressure_blocks_total", ts.backpressure_blocks);
  sink("crsm_transport_wire_flushes_total", ts.wire_flushes);
  sink("crsm_transport_frames_flushed_total", ts.frames_flushed);
  sink("crsm_transport_wakes_sent_total", ts.wakes_sent);
  sink("crsm_transport_wakes_received_total", ts.wakes_received);
  sink("crsm_transport_connected_peers", transport_.connected_peers());
  sink("crsm_transport_backlog_bytes", transport_.backlog_bytes());

  const StorageStats ss = storage_.stats();
  sink("crsm_storage_appends_total", ss.appends);
  sink("crsm_storage_sync_requests_total", ss.sync_requests);
  sink("crsm_storage_syncs_total", ss.syncs);
  sink("crsm_storage_held_messages_total", ss.held_messages);
  sink("crsm_storage_checkpoints_total", ss.checkpoints);
  sink("crsm_log_records", storage_.log().size());
  sink("crsm_log_bytes", storage_.log().records().bytes());
  sink("crsm_storage_max_batch", ss.max_batch);

  sink("crsm_executed_total", executed_.load(std::memory_order_relaxed));
  sink("crsm_reads_served_total",
       reads_served_.load(std::memory_order_relaxed));
  if (cfg_.num_groups > 1) {
    r.gauge("crsm_group").set(static_cast<double>(cfg_.group));
    sink("crsm_wrong_group_rejections_total",
         wrong_group_rejections_.load(std::memory_order_relaxed));
  }

  const BatchStats bs = batch_stats();
  sink("crsm_batch_cmds_total", bs.cmds);
  sink("crsm_batch_submissions_total", bs.submissions);
  r.gauge("crsm_cmds_per_prepare")
      .set(bs.submissions == 0
               ? 0.0
               : static_cast<double>(bs.cmds) /
                     static_cast<double>(bs.submissions));

  proto_->fill_metrics(sink);
  sm_->fill_metrics(sink);
}

// --- ProtocolEnv -----------------------------------------------------------

void NodeRuntime::fence_if_owed() {
  // Group commit: any frame produced while the WAL owes a durability point
  // waits for the pass-end fsync — in particular the PREPAREOK acknowledging
  // the append that made the sync owed. Once the fence is up, everything
  // later in the pass queues behind it even if the sync was meanwhile
  // satisfied (e.g. a checkpoint truncation rewrote + synced the WAL):
  // per-link FIFO in increasing-timestamp order is what Clock-RSM's
  // stability argument rests on.
  if (storage_.sync_pending()) transport_.raise_fence();
  if (transport_.fenced()) {
    storage_.count_held_message();
    ++held_this_pass_;
  }
}

void NodeRuntime::enqueue_write(Command cmd) {
  batch_cmds_.fetch_add(1, std::memory_order_relaxed);
  if (cfg_.max_batch_cmds <= 1) {
    // Batching off: the pre-batching submit path, one protocol submission
    // per command. kSubmit coincides with acceptance.
    if (tracer_ && tracer_->active()) {
      tracer_->stamp(cmd.client, cmd.seq, obs::Stage::kSubmit,
                     net::EventLoop::mono_us());
    }
    batch_submissions_.fetch_add(1, std::memory_order_relaxed);
    proto_->submit(std::move(cmd));
    return;
  }
  batch_.add(std::move(cmd));
}

void NodeRuntime::submit_cut(const std::vector<Command>& members,
                             Command submission) {
  batch_submissions_.fetch_add(1, std::memory_order_relaxed);
  if (batch_size_hist_) batch_size_hist_->observe(members.size());
  if (tracer_ && tracer_->active()) {
    // The batched command's kSubmit is the batch cut: queue-delay up to
    // here is time spent waiting for the batch to fill / the pass to end.
    const std::uint64_t now = net::EventLoop::mono_us();
    for (const Command& c : members) {
      tracer_->stamp(c.client, c.seq, obs::Stage::kSubmit, now);
    }
    if (is_batch(submission)) {
      std::vector<std::pair<ClientId, std::uint64_t>> ids;
      ids.reserve(members.size());
      for (const Command& c : members) ids.emplace_back(c.client, c.seq);
      tracer_->bind_batch(submission.client, submission.seq, ids);
    }
  }
  proto_->submit(std::move(submission));
}

void NodeRuntime::flush_durability() {
  storage_.flush();  // one fdatasync covers the whole pass's appends
  // The wire flush that follows this hook sends everything the fence held.
  transport_.lift_fence();
  if (held_this_pass_ == 0) return;
  if (profiler_) profiler_->note_batch(held_this_pass_);
  held_this_pass_ = 0;
}

void NodeRuntime::send(ReplicaId to, Message m) {
  fence_if_owed();
  transport_.send(cfg_.id, to, FrameWriter(cfg_.id).frame(std::move(m)));
}

void NodeRuntime::send_encoded(ReplicaId to, std::string frame) {
  fence_if_owed();
  transport_.send(cfg_.id, to, WireFrame(std::move(frame)));
}

void NodeRuntime::multicast(const std::vector<ReplicaId>& tos, Message m) {
  fence_if_owed();
  transport_.multicast(cfg_.id, tos, FrameWriter(cfg_.id).frame(std::move(m)));
}

void NodeRuntime::reply_to_client(std::uint64_t conn, Message reply) {
  // A reply shares its connection with replies held for the fsync: the
  // fence keeps it behind them (FIFO), even when it owes no durability.
  fence_if_owed();
  transport_.send_to_client(conn, FrameWriter(cfg_.id).frame(std::move(reply)));
}

void NodeRuntime::schedule_after(Tick delay_us, std::function<void()> fn) {
  (void)loop_.schedule_after(delay_us, std::move(fn));
}

void NodeRuntime::install_checkpoint(std::string_view blob) {
  storage_.install_checkpoint(blob, *sm_);
  // The peer's snapshot replaces everything executed here so far.
  executed_.store(storage_.checkpoint()->applied, std::memory_order_relaxed);
}

void NodeRuntime::deliver(const Command& cmd, Timestamp ts, bool local_origin) {
  if (is_batch(cmd)) {
    // One replicated entry, many client commands: apply them in envelope
    // order (every replica splits identically, so execution order agrees).
    for (const Command& member : split_batch(cmd)) {
      apply_and_reply(member, ts, local_origin);
    }
  } else {
    apply_and_reply(cmd, ts, local_origin);
  }
  // One checkpoint decision per delivered entry, after the whole batch has
  // applied: a mid-batch checkpoint would cover ts with only a prefix of
  // the batch in the snapshot.
  storage_.note_commit(*sm_, ts, executed_.load(std::memory_order_relaxed));
}

void NodeRuntime::apply_and_reply(const Command& cmd, Timestamp ts,
                                  bool local_origin) {
  const std::string output = sm_->apply(cmd);
  executed_.fetch_add(1, std::memory_order_relaxed);
  if (commit_hook_) commit_hook_(cmd, ts, local_origin);
  if (!local_origin) return;
  const bool traced = tracer_ && tracer_->active();
  if (traced) {
    tracer_->stamp(cmd.client, cmd.seq, obs::Stage::kExecute,
                   net::EventLoop::mono_us());
  }
  // A read that rode the log (protocol without a local read path) completes
  // here; it owes a read reply, not a write acknowledgment.
  const auto rit = logged_reads_.find({cmd.client, cmd.seq});
  if (rit != logged_reads_.end()) {
    logged_reads_.erase(rit);
    reads_served_.fetch_add(1, std::memory_order_relaxed);
    finish_read(cmd, output);
    return;
  }
  if (reply_hook_) reply_hook_(cmd);
  // Networked client: route the reply to the socket that carried the
  // request (if it is still up; a vanished client just loses its reply and
  // retries, Section II-B's at-least-once client contract).
  auto it = client_routes_.find(cmd.client);
  if (it != client_routes_.end()) {
    Message reply;
    reply.type = MsgType::kClientReply;
    reply.cmd.client = cmd.client;
    reply.cmd.seq = cmd.seq;
    reply.blob = output;
    reply_to_client(it->second, std::move(reply));
  }
  if (traced) tracer_->finish(cmd.client, cmd.seq, net::EventLoop::mono_us());
}

void NodeRuntime::deliver_read(const Command& cmd, Timestamp read_ts) {
  (void)read_ts;
  const std::string output = sm_->apply_read(cmd);
  reads_served_.fetch_add(1, std::memory_order_relaxed);
  finish_read(cmd, output);
}

void NodeRuntime::finish_read(const Command& cmd, const std::string& output) {
  if (tracer_ && tracer_->active()) {
    tracer_->finish(cmd.client, cmd.seq, net::EventLoop::mono_us());
  }
  if (read_hook_) read_hook_(cmd, output);
  auto it = client_routes_.find(cmd.client);
  if (it == client_routes_.end()) return;
  Message reply;
  reply.type = MsgType::kClientReadReply;
  reply.cmd.client = cmd.client;
  reply.cmd.seq = cmd.seq;
  reply.blob = output;
  reply_to_client(it->second, std::move(reply));
}

// --- inbound ---------------------------------------------------------------

void NodeRuntime::on_peer_message(const Message& m) { proto_->on_message(m); }

bool NodeRuntime::reject_wrong_group(std::uint64_t conn, const Command& cmd) {
  if (cfg_.num_groups <= 1) return false;
  ShardId owner;
  try {
    owner = ShardRouter(cfg_.num_groups).shard_of(cmd);
  } catch (const CodecError&) {
    return false;  // not a KV command; nothing to route by
  }
  if (owner == cfg_.group) return false;
  // Client and server disagree on the key's owner (a stale or buggy client
  // router). Applying here would split the key across two groups' logs —
  // the one failure sharding must never produce — so bounce the command,
  // echoing (client, seq) and naming the owner for the client to redial.
  wrong_group_rejections_.fetch_add(1, std::memory_order_relaxed);
  Message redirect;
  redirect.type = MsgType::kClientRedirect;
  redirect.cmd.client = cmd.client;
  redirect.cmd.seq = cmd.seq;
  redirect.a = owner;
  reply_to_client(conn, std::move(redirect));
  return true;
}

void NodeRuntime::on_client_message(std::uint64_t conn, const Message& m) {
  if (m.type == MsgType::kClientRead) {
    if (reject_wrong_group(conn, m.cmd)) return;
    client_routes_[m.cmd.client] = conn;
    Command owned = m.cmd;  // copy-on-retain: m views the receive buffer
    if (!proto_->supports_local_reads()) {
      logged_reads_.insert({owned.client, owned.seq});
    }
    if (tracer_) {
      tracer_->begin_read(owned.client, owned.seq, net::EventLoop::mono_us());
    }
    proto_->submit_read(std::move(owned));
    return;
  }
  if (m.type != MsgType::kClientRequest) return;  // protocol misuse; ignore
  if (reject_wrong_group(conn, m.cmd)) return;
  client_routes_[m.cmd.client] = conn;
  // The decoded command views the connection's receive buffer; copying into
  // an owned Command here is the copy-on-retain point.
  Command owned = m.cmd;
  if (tracer_) tracer_->begin(owned.client, owned.seq, net::EventLoop::mono_us());
  enqueue_write(std::move(owned));
}

void NodeRuntime::on_client_closed(std::uint64_t conn) {
  for (auto it = client_routes_.begin(); it != client_routes_.end();) {
    if (it->second == conn) {
      it = client_routes_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace crsm
