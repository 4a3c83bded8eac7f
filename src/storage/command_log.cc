#include "storage/command_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "common/codec.h"
#include "common/message.h"

namespace crsm {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

// Writes all of `bytes` to `fd`; false (errno set) on a write error.
bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

// A rewrite streams the surviving log through a buffer of this size.
constexpr std::size_t kRewriteBufferBytes = 64 * 1024;

}  // namespace

// Makes a rename in `path`'s directory durable across power loss. Failure
// is ignored: the rename itself succeeded, and a directory that cannot be
// fsynced (some filesystems) still orders the entry eventually.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return;
  (void)::fsync(dfd);
  ::close(dfd);
}

void CrashLossyLog::remove_uncommitted_above(
    Timestamp bound, const std::function<bool(const Timestamp&)>& keep) {
  records_.remove_uncommitted_above(bound, keep);
  // A structural rewrite persists the full surviving content, exactly like
  // FileLog's crash-atomic rewrite_all (+fsync). Merely clamping the
  // watermark instead would slide appended-but-unsynced tail records under
  // it whenever the rewrite removed records from the durable prefix,
  // silently weakening the power-loss model.
  durable_ = records_.size();
}

void CrashLossyLog::truncate_prefix(Timestamp upto) {
  records_.truncate_prefix(upto);
  durable_ = records_.size();  // structural rewrite: see above
}

FileLog::FileLog(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) throw_errno("FileLog open " + path_);

  // Replay the existing file in 64 KiB reads; stop at (and trim) any torn
  // tail. `carry` holds the bytes after the last whole frame, `good` is the
  // file offset where they start.
  std::string carry;
  std::size_t good = 0;
  bool eof = false;
  bool torn = false;
  char buf[1 << 16];
  ::lseek(fd_, 0, SEEK_SET);
  while (!eof && !torn) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("FileLog read " + path_);
    }
    eof = n == 0;
    carry.append(buf, static_cast<std::size_t>(n));
    std::size_t pos = 0;
    while (pos < carry.size()) {
      const std::string_view rest = std::string_view(carry).substr(pos);
      Decoder frame(rest);
      std::string_view body;
      try {
        body = frame.bytes_view();
      } catch (const CodecError&) {
        torn = eof;  // a partial frame: read on, unless the file ended
        break;
      }
      try {
        // Validate the record; its payload only views `carry`, and the
        // mirror keeps the frame's bytes, not the decoded record. Those
        // bytes are served as they are (a catch-up reply copies them), so
        // the frame must be exactly what the encoder writes: a leftover
        // byte would read as the start of the next record, and an
        // over-long varint would not match the encoder's sizes.
        Decoder d(body);
        const LogRecord rec = decode_log_record_view(d);
        if (log_record_size(rec) != body.size() ||
            frame.remaining() + varint_size(body.size()) + body.size() != rest.size()) {
          throw CodecError("log frame is not in its encoder's form");
        }
      } catch (const CodecError&) {
        torn = true;
        break;
      }
      const std::size_t framed = rest.size() - frame.remaining();
      records_.append_framed(rest.substr(0, framed));
      pos += framed;
    }
    good += pos;
    carry.erase(0, pos);
  }
  if (!carry.empty()) {
    if (::ftruncate(fd_, static_cast<off_t>(good)) != 0) {
      throw_errno("FileLog truncate torn tail " + path_);
    }
  }
}

FileLog::~FileLog() {
  if (fd_ >= 0) ::close(fd_);
}

LogPosition FileLog::append(const LogRecord& r) {
  const LogPosition pos = records_.append(r);
  if (!write_all(fd_, records_.wal_bytes(pos))) throw_errno("FileLog append " + path_);
  return pos;
}

void FileLog::sync() {
  if (::fdatasync(fd_) != 0) throw_errno("FileLog sync " + path_);
}

void FileLog::remove_uncommitted_above(Timestamp bound,
                                       const std::function<bool(const Timestamp&)>& keep) {
  records_.remove_uncommitted_above(bound, keep);
  rewrite_all();
}

void FileLog::truncate_prefix(Timestamp upto) {
  records_.truncate_prefix(upto);
  rewrite_all();
}

void FileLog::rewrite_all() {
  // Rewrites (reconfiguration, checkpoint truncation, recovery pruning) are
  // rare but must be crash-atomic: truncating in place would open a window
  // where a crash wipes the whole fsynced log. Write a temp file, make it
  // durable, rename it over the log, then adopt its fd — a crash leaves
  // either the old bytes or the new, never neither.
  //
  // The live records' bytes stream from the mirror through a fixed buffer:
  // a checkpoint can fire while thousands of PREPAREs are still stalled,
  // and the rewrite must not hold a second copy of all of them.
  const std::string tmp = path_ + ".rewrite";
  int tfd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (tfd < 0) throw_errno("FileLog rewrite open " + tmp);
  std::string buf;
  buf.reserve(kRewriteBufferBytes);
  bool ok = true;
  for (auto it = records_.begin(); it != records_.end(); ++it) {
    buf.append(it.wal_bytes());
    if (buf.size() >= kRewriteBufferBytes) {
      ok = write_all(tfd, buf);
      if (!ok) break;
      buf.clear();
    }
  }
  if (!ok || !write_all(tfd, buf)) {
    ::close(tfd);
    throw_errno("FileLog rewrite " + tmp);
  }
  if (::fdatasync(tfd) != 0) {
    ::close(tfd);
    throw_errno("FileLog rewrite sync " + tmp);
  }
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    ::close(tfd);
    throw_errno("FileLog rewrite rename " + path_);
  }
  fsync_parent_dir(path_);
  ::close(fd_);
  fd_ = tfd;  // same inode the rename published
}

}  // namespace crsm
