#include "sim/sim_world.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "storage/replica_storage.h"

namespace crsm {

// Per-replica execution context: the shared ReplicaCore plus what only the
// simulator has — a simulated clock, timers on the simulator's queue, the
// network, the execution trace and crash state. A `generation` counter
// invalidates pending timers across crash/restart.
struct SimWorld::ReplicaCtx final : public ReplicaCore {
  ReplicaCtx(SimWorld* w, ReplicaId i)
      : ReplicaCore(i, w->opt_.max_batch_cmds, /*max_batch_bytes=*/0),
        world(w) {}

  SimWorld* world;
  std::unique_ptr<SimClock> clk;
  std::vector<ExecRecord> records;  // only when opt.record_execution
  bool alive = true;
  std::uint64_t generation = 0;
  CrashLossyLog* lossy_log = nullptr;  // set when opt.lossy_crash
  bool flush_scheduled = false;

  // Opens the replica's storage, closing any open one first: from disk when
  // file-backed (a restart reopens what the crash left there), else memory.
  void open_storage() {
    const SimWorldOptions& o = world->opt_;
    set_storage(nullptr);
    StorageOptions so;
    // The simulator has no event-loop pass to batch fsyncs over: every
    // durability request syncs at once, as the protocols expect.
    so.group_commit = false;
    if (!o.log_dir.empty()) {
      so.dir = o.log_dir + "/replica-" + std::to_string(self());
      set_storage(std::make_unique<ReplicaStorage>(std::move(so)));
      return;
    }
    std::unique_ptr<CrashLossyLog> lossy;
    if (o.lossy_crash) {
      lossy = std::make_unique<CrashLossyLog>();
      lossy->set_sync_is_noop(o.sync_is_noop);
      lossy_log = lossy.get();
    }
    set_storage(std::make_unique<ReplicaStorage>(std::move(so), std::move(lossy)));
  }

  void boot() { ReplicaCore::boot(world->sm_factory_, world->protocol_factory_); }

  // Submit-side batching (opt.max_batch_cmds > 1) is cut by count only, and
  // by a same-time simulator event scheduled when the buffer goes
  // non-empty, so it runs after every submit already enqueued at this
  // instant — batching is deterministic. A crash clears the buffer
  // (commands never reached the protocol, so nothing was acknowledged).
  void enqueue(Command cmd) {
    enqueue_write(std::move(cmd));
    if (!batch_pending() || flush_scheduled) return;
    flush_scheduled = true;
    const std::uint64_t gen = generation;
    world->sim_.after(0, [this, gen] {
      flush_scheduled = false;
      if (alive && generation == gen) cut_batch();
    });
  }

  // --- ProtocolEnv: transport, clock and timers ---
  void send(ReplicaId to, Message m) override {
    world->network_->send(self(), to, FrameWriter(self()).frame(std::move(m)));
  }

  // One frame per fan-out: the Message is moved in and (when byte counting is
  // on) serialized once, then shared by every destination link.
  void multicast(const std::vector<ReplicaId>& tos, Message m) override {
    world->network_->multicast(self(), tos, FrameWriter(self()).frame(std::move(m)));
  }

  [[nodiscard]] Tick clock_now() override { return clk->now_us(); }

  void schedule_after(Tick delay_us, std::function<void()> fn) override {
    const std::uint64_t gen = generation;
    world->sim_.after(clk->local_delay_to_sim(delay_us),
                      [this, gen, fn = std::move(fn)]() {
                        if (alive && generation == gen) fn();
                      });
  }

  // --- ReplicaCore hooks ---
  void on_applied(const Command& cmd, Timestamp ts, std::uint32_t sub,
                  bool local_origin, const std::string& /*output*/) override {
    if (world->opt_.record_execution) {
      records.push_back(ExecRecord{ts, cmd, world->sim_.now(), sub});
    }
    if (world->commit_hook_) world->commit_hook_(self(), cmd, ts, local_origin);
  }

  void on_read(const Command& cmd, Timestamp read_ts,
               const std::string& output) override {
    if (world->read_hook_) world->read_hook_(self(), cmd, read_ts, output);
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
      if (ctx->alive) ctx->protocol().on_message(m);
    });
  }
}

SimWorld::~SimWorld() = default;

void SimWorld::start() {
  for (auto& r : replicas_) r->protocol().start();
}

ReplicaProtocol& SimWorld::protocol(ReplicaId i) { return replicas_.at(i)->protocol(); }
StateMachine& SimWorld::state_machine(ReplicaId i) {
  return replicas_.at(i)->state_machine();
}
CommandLog& SimWorld::log(ReplicaId i) { return replicas_.at(i)->log(); }
SimClock& SimWorld::clock(ReplicaId i) { return *replicas_.at(i)->clk; }

void SimWorld::submit(ReplicaId i, Command cmd) {
  ReplicaCtx* ctx = replicas_.at(i).get();
  sim_.after(0, [ctx, cmd = std::move(cmd)]() {
    if (ctx->alive) ctx->enqueue(cmd);
  });
}

void SimWorld::submit_read(ReplicaId i, Command cmd) {
  ReplicaCtx* ctx = replicas_.at(i).get();
  sim_.after(0, [ctx, cmd = std::move(cmd)]() {
    if (ctx->alive) ctx->protocol().submit_read(cmd);
  });
}

std::uint64_t SimWorld::reads_served(ReplicaId i) const {
  return replicas_.at(i)->reads_served();
}

const std::vector<ExecRecord>& SimWorld::execution(ReplicaId i) const {
  return replicas_.at(i)->records;
}

void SimWorld::crash(ReplicaId i) {
  ReplicaCtx* ctx = replicas_.at(i).get();
  ctx->alive = false;
  ++ctx->generation;
  // Un-submitted batch buffer dies with the replica: nothing in it was
  // acknowledged or replicated.
  ctx->drop_batch();
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
  ctx->records.clear();
  if (!opt_.log_dir.empty()) {
    // Genuine restart: close the on-disk storage and reopen it.
    ctx->open_storage();
  }
  ctx->boot();  // volatile state is lost; rebuilt from stable storage
  network_->recover(i);
  ctx->protocol().start();
}

void SimWorld::take_checkpoint(ReplicaId i, Timestamp last_applied, Epoch epoch) {
  ReplicaCtx* ctx = replicas_.at(i).get();
  ctx->storage().checkpoint_now(ctx->state_machine(), last_applied, epoch,
                                 ctx->executed());
}

bool SimWorld::has_checkpoint(ReplicaId i) const {
  return replicas_.at(i)->storage().checkpoint().has_value();
}

}  // namespace crsm
