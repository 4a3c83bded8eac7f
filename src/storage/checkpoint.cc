#include "storage/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <system_error>

#include "common/codec.h"
#include "storage/recovery.h"

namespace crsm {

std::string Checkpoint::encode() const {
  std::string out;
  Encoder e(&out);
  e.timestamp(last_applied);
  e.var(epoch);
  e.bytes(state);
  e.var(applied);
  return out;
}

Checkpoint Checkpoint::decode(const std::string& blob) {
  Decoder d(blob);
  Checkpoint cp;
  cp.last_applied = d.timestamp();
  cp.epoch = d.var();
  cp.state = d.bytes();
  // Checkpoints written before the applied count existed end here.
  if (!d.done()) cp.applied = d.var();
  if (!d.done()) throw CodecError("trailing bytes in Checkpoint");
  return cp;
}

Checkpoint take_checkpoint(const StateMachine& sm, Timestamp last_applied,
                           Epoch epoch, std::uint64_t applied) {
  Checkpoint cp;
  cp.last_applied = last_applied;
  cp.epoch = epoch;
  cp.state = sm.snapshot();
  cp.applied = applied;
  return cp;
}

void truncate_covered_prefix(CommandLog& log, const Checkpoint& cp) {
  log.truncate_prefix(cp.last_applied);
}

Timestamp recover_with_checkpoint(const std::optional<Checkpoint>& cp,
                                  const CommandLog& log, StateMachine& sm) {
  Timestamp floor = kZeroTimestamp;
  if (cp) {
    sm.restore(cp->state);
    floor = cp->last_applied;
  }
  ReplayResult rr = replay_log(log.records());
  for (const LogRecord& rec : rr.committed) {
    if (rec.ts > floor) sm.apply(rec.cmd);
  }
  return std::max(floor, rr.last_commit_ts);
}

void write_checkpoint_file(const std::string& path, const Checkpoint& cp) {
  // Atomic and durable: write temp, fdatasync it *before* the rename (an
  // unsynced rename could publish an empty/partial file across power loss
  // while the caller goes on to truncate the WAL prefix it covers), then
  // rename and fsync the directory.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::system_error(errno, std::generic_category(),
                                      "checkpoint open " + tmp);
  const std::string blob = cp.encode();
  std::size_t off = 0;
  while (off < blob.size()) {
    const ssize_t n = ::write(fd, blob.data() + off, blob.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw std::system_error(err, std::generic_category(),
                              "checkpoint write " + tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fdatasync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(),
                            "checkpoint sync " + tmp);
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::system_error(errno, std::generic_category(),
                            "checkpoint rename " + path);
  }
  fsync_parent_dir(path);
}

std::optional<Checkpoint> read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  try {
    return Checkpoint::decode(blob);
  } catch (const CodecError&) {
    // A corrupt checkpoint must not brick the boot: recovery falls back to
    // the WAL plus peer catch-up (which can ship a fresh checkpoint).
    std::fprintf(stderr, "warning: discarding corrupt checkpoint %s\n",
                 path.c_str());
    return std::nullopt;
  }
}

}  // namespace crsm
