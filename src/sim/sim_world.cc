#include "sim/sim_world.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "common/batch.h"
#include "storage/replica_storage.h"

namespace crsm {

// Per-replica execution context: env implementation plus owned state. A
// `generation` counter invalidates pending timers across crash/restart.
struct SimWorld::ReplicaCtx final : public ProtocolEnv {
  ReplicaCtx(SimWorld* w, ReplicaId i)
      : world(w),
        id(i),
        batch(i, w->opt_.max_batch_cmds, /*max_bytes=*/0,
              [this](const std::vector<Command>&, Command submission) {
                proto->submit(std::move(submission));
              }) {}

  SimWorld* world;
  ReplicaId id;
  std::unique_ptr<SimClock> clk;
  std::unique_ptr<ReplicaStorage> storage;  // durable across crash/restart
  std::unique_ptr<StateMachine> sm;
  std::unique_ptr<ReplicaProtocol> proto;
  std::vector<ExecRecord> executed;  // only when opt.record_execution
  std::uint64_t applied = 0;         // commands the state machine reflects
  std::uint64_t reads_served = 0;    // cumulative, survives restart()
  bool alive = true;
  std::uint64_t generation = 0;
  CrashLossyLog* lossy_log = nullptr;  // set when opt.lossy_crash

  // Opens replica `id`'s storage: from disk when file-backed (a restart
  // reopens what the crash left there), else in memory.
  void open_storage() {
    const SimWorldOptions& o = world->opt_;
    StorageOptions so;
    // The simulator has no event-loop pass to batch fsyncs over: every
    // durability request syncs at once, as the protocols expect.
    so.group_commit = false;
    if (!o.log_dir.empty()) {
      so.dir = o.log_dir + "/replica-" + std::to_string(id);
      storage = std::make_unique<ReplicaStorage>(std::move(so));
      return;
    }
    std::unique_ptr<CrashLossyLog> lossy;
    if (o.lossy_crash) {
      lossy = std::make_unique<CrashLossyLog>();
      lossy->set_sync_is_noop(o.sync_is_noop);
      lossy_log = lossy.get();
    }
    storage = std::make_unique<ReplicaStorage>(std::move(so), std::move(lossy));
  }

  // Fresh volatile state over the stable storage: the state machine starts
  // from the checkpoint (if any); start() replays the log above it.
  void boot() {
    sm = world->sm_factory_();
    applied = storage->restore_into(*sm) ? storage->checkpoint()->applied : 0;
    proto = world->protocol_factory_(*this, id);
  }

  // Submit-side batching (opt.max_batch_cmds > 1), cut by count only. The
  // cut is a same-time simulator event scheduled when the buffer goes
  // non-empty, so it runs after every submit already enqueued at this
  // instant — batching is deterministic. A crash clears the buffer
  // (commands never reached the protocol, so nothing was acknowledged).
  BatchAccumulator batch;
  bool flush_scheduled = false;

  void enqueue_write(const Command& cmd) {
    if (world->opt_.max_batch_cmds <= 1) {
      proto->submit(cmd);
      return;
    }
    batch.add(cmd);
    if (batch.empty() || flush_scheduled) return;
    flush_scheduled = true;
    const std::uint64_t gen = generation;
    world->sim_.after(0, [this, gen] {
      flush_scheduled = false;
      if (alive && generation == gen) batch.cut();
    });
  }

  // --- ProtocolEnv ---
  [[nodiscard]] ReplicaId self() const override { return id; }

  void send(ReplicaId to, Message m) override {
    world->network_->send(id, to, FrameWriter(id).frame(std::move(m)));
  }

  // One frame per fan-out: the Message is moved in and (when byte counting is
  // on) serialized once, then shared by every destination link.
  void multicast(const std::vector<ReplicaId>& tos, Message m) override {
    world->network_->multicast(id, tos, FrameWriter(id).frame(std::move(m)));
  }

  [[nodiscard]] Tick clock_now() override { return clk->now_us(); }

  void schedule_after(Tick delay_us, std::function<void()> fn) override {
    const std::uint64_t gen = generation;
    world->sim_.after(clk->local_delay_to_sim(delay_us),
                      [this, gen, fn = std::move(fn)]() {
                        if (alive && generation == gen) fn();
                      });
  }

  [[nodiscard]] CommandLog& log() override { return storage->log(); }

  [[nodiscard]] Timestamp recovery_floor() const override {
    return storage->recovery_floor();
  }

  [[nodiscard]] std::string encoded_checkpoint() const override {
    return storage->encoded_checkpoint();
  }

  void install_checkpoint(std::string_view blob) override {
    storage->install_checkpoint(blob, *sm);
    applied = storage->checkpoint()->applied;
  }

  void deliver(const Command& cmd, Timestamp ts, bool local_origin) override {
    if (is_batch(cmd)) {
      std::uint32_t sub = 0;
      for (const Command& member : split_batch(cmd)) {
        apply_one(member, ts, sub++, local_origin);
      }
    } else {
      apply_one(cmd, ts, 0, local_origin);
    }
    // One checkpoint decision per delivered entry, after the whole batch,
    // exactly as NodeRuntime::deliver does.
    storage->note_commit(*sm, ts, applied);
  }

  void apply_one(const Command& cmd, Timestamp ts, std::uint32_t sub,
                 bool local_origin) {
    (void)sm->apply(cmd);
    ++applied;
    if (world->opt_.record_execution) {
      executed.push_back(ExecRecord{ts, cmd, world->sim_.now(), sub});
    }
    if (world->commit_hook_) world->commit_hook_(id, cmd, ts, local_origin);
  }

  void deliver_read(const Command& cmd, Timestamp read_ts) override {
    const std::string out = sm->apply_read(cmd);
    ++reads_served;
    if (world->read_hook_) world->read_hook_(id, cmd, read_ts, out);
  }
};

SimWorld::SimWorld(SimWorldOptions opt, ProtocolFactory protocol_factory,
                   StateMachineFactory sm_factory)
    : opt_(std::move(opt)),
      protocol_factory_(std::move(protocol_factory)),
      sm_factory_(std::move(sm_factory)),
      rng_(opt_.seed) {
  const std::size_t n = opt_.matrix.size();
  if (n == 0) throw std::invalid_argument("SimWorld needs at least one replica");

  network_ = std::make_unique<SimTransport>(
      sim_, opt_.matrix, rng_.fork(),
      SimTransport::Options{.jitter_ms = opt_.jitter_ms, .count_bytes = opt_.count_bytes});

  Rng clock_rng = rng_.fork();
  for (std::size_t i = 0; i < n; ++i) {
    auto ctx = std::make_unique<ReplicaCtx>(this, static_cast<ReplicaId>(i));
    const double skew_us =
        opt_.clock_skew_ms > 0.0
            ? clock_rng.uniform(-opt_.clock_skew_ms, opt_.clock_skew_ms) * 1000.0
            : 0.0;
    const double rate =
        opt_.clock_drift > 0.0
            ? 1.0 + clock_rng.uniform(-opt_.clock_drift, opt_.clock_drift)
            : 1.0;
    ctx->clk = std::make_unique<SimClock>([this] { return sim_.now(); }, skew_us, rate);
    ctx->open_storage();
    ctx->boot();
    replicas_.push_back(std::move(ctx));
  }

  for (std::size_t i = 0; i < n; ++i) {
    ReplicaCtx* ctx = replicas_[i].get();
    network_->register_replica(static_cast<ReplicaId>(i), [ctx](const Message& m) {
      if (ctx->alive) ctx->proto->on_message(m);
    });
  }
}

SimWorld::~SimWorld() = default;

void SimWorld::start() {
  for (auto& r : replicas_) r->proto->start();
}

ReplicaProtocol& SimWorld::protocol(ReplicaId i) { return *replicas_.at(i)->proto; }
StateMachine& SimWorld::state_machine(ReplicaId i) { return *replicas_.at(i)->sm; }
CommandLog& SimWorld::log(ReplicaId i) { return replicas_.at(i)->storage->log(); }
SimClock& SimWorld::clock(ReplicaId i) { return *replicas_.at(i)->clk; }

void SimWorld::submit(ReplicaId i, Command cmd) {
  ReplicaCtx* ctx = replicas_.at(i).get();
  sim_.after(0, [ctx, cmd = std::move(cmd)]() {
    if (ctx->alive) ctx->enqueue_write(cmd);
  });
}

void SimWorld::submit_read(ReplicaId i, Command cmd) {
  ReplicaCtx* ctx = replicas_.at(i).get();
  sim_.after(0, [ctx, cmd = std::move(cmd)]() {
    if (ctx->alive) ctx->proto->submit_read(cmd);
  });
}

std::uint64_t SimWorld::reads_served(ReplicaId i) const {
  return replicas_.at(i)->reads_served;
}

const std::vector<ExecRecord>& SimWorld::execution(ReplicaId i) const {
  return replicas_.at(i)->executed;
}

void SimWorld::crash(ReplicaId i) {
  ReplicaCtx* ctx = replicas_.at(i).get();
  ctx->alive = false;
  ++ctx->generation;
  // Un-submitted batch buffer dies with the replica: nothing in it was
  // acknowledged or replicated.
  ctx->batch.clear();
  // Power loss: the un-fsynced log tail does not survive the crash.
  if (ctx->lossy_log) ctx->lossy_log->drop_unsynced();
  network_->crash(i);
}

bool SimWorld::crashed(ReplicaId i) const { return !replicas_.at(i)->alive; }

void SimWorld::restart(ReplicaId i) {
  ReplicaCtx* ctx = replicas_.at(i).get();
  if (ctx->alive) throw std::logic_error("restart of a live replica");
  ++ctx->generation;
  ctx->alive = true;
  ctx->executed.clear();
  if (!opt_.log_dir.empty()) {
    // Genuine restart: close the on-disk storage and reopen it.
    ctx->storage.reset();
    ctx->open_storage();
  }
  ctx->boot();  // volatile state is lost; rebuilt from stable storage
  network_->recover(i);
  ctx->proto->start();
}

void SimWorld::take_checkpoint(ReplicaId i, Timestamp last_applied, Epoch epoch) {
  ReplicaCtx* ctx = replicas_.at(i).get();
  ctx->storage->checkpoint_now(*ctx->sm, last_applied, epoch, ctx->applied);
}

bool SimWorld::has_checkpoint(ReplicaId i) const {
  return replicas_.at(i)->storage->checkpoint().has_value();
}

}  // namespace crsm
