#include "common/batch.h"

#include <string>
#include <utility>

#include "common/codec.h"
#include "common/message.h"

namespace crsm {

Command make_batch(const std::vector<Command>& cmds, ReplicaId origin,
                   std::uint64_t counter) {
  Message env;
  env.type = MsgType::kCmdBatch;
  env.from = origin;
  env.cmds = cmds;
  Command out;
  out.client = kBatchClient;
  out.seq = (static_cast<std::uint64_t>(origin) << 40) | (counter & ((1ULL << 40) - 1));
  out.payload = Bytes(env.encode());
  return out;
}

std::vector<Command> split_batch(const Command& envelope) {
  Message env = Message::decode(envelope.payload.view());
  if (env.type != MsgType::kCmdBatch) {
    throw CodecError("batch envelope has wrong message type");
  }
  if (env.cmds.empty()) throw CodecError("empty batch envelope");
  return std::move(env.cmds);
}

BatchAccumulator::BatchAccumulator(ReplicaId origin, std::size_t max_cmds,
                                   std::size_t max_bytes, Sink sink)
    : origin_(origin),
      max_cmds_(max_cmds),
      max_bytes_(max_bytes),
      sink_(std::move(sink)) {
  buf_.reserve(max_cmds_);
}

void BatchAccumulator::add(Command cmd) {
  // Byte cap: cut the running batch before a command that would overflow
  // it. An oversized command lands in the (now empty) buffer and ships as a
  // singleton at the next cut — the cap bounds envelopes, not commands.
  if (!buf_.empty() && max_bytes_ != 0 &&
      bytes_ + cmd.payload.size() > max_bytes_) {
    cut();
  }
  bytes_ += cmd.payload.size();
  buf_.push_back(std::move(cmd));
  if (buf_.size() >= max_cmds_) cut();
}

void BatchAccumulator::cut() {
  if (buf_.empty()) return;
  // Singleton cut: no envelope, the bare command replicates as before.
  Command submission =
      buf_.size() == 1 ? buf_.front() : make_batch(buf_, origin_, counter_++);
  sink_(buf_, std::move(submission));
  buf_.clear();
  bytes_ = 0;
}

void BatchAccumulator::clear() {
  buf_.clear();
  bytes_ = 0;
}

}  // namespace crsm
