// Copy-on-retain byte buffer for wire payloads.
//
// The zero-copy receive path (TcpTransport's FrameConn reads) decodes
// messages whose payload fields are *views* into the connection's receive
// buffer: no bytes are copied while a message is merely inspected and
// routed. The moment protocol
// code stores a payload past the handler call — ClockRSM's pending map,
// Paxos/Mencius slot state, a command-log append — the store goes through
// Bytes' copy constructor/assignment, which always yields an owned Bytes.
// That single rule ("a copy owns") is what makes view payloads safe to hand
// to unmodified protocol code.
//
// Owned bytes are immutable and shared: copying an owned Bytes bumps a
// reference count instead of copying the bytes, so a command's pending
// entry, its log record and the frame that carries it all hold one buffer.
//
// Ownership rules:
//  * Bytes built from std::string / const char* own their bytes.
//  * Bytes::view(v) borrows `v`; the borrow is only valid while the backing
//    buffer is (one message handler call). Views never escape the handler
//    unless copied, because copying produces an owned Bytes.
//  * A copy of an owned Bytes co-owns the same immutable bytes; they live
//    until the last co-owner is destroyed or reassigned. Nothing mutates
//    owned bytes in place: assignment, assign() and clear() replace the
//    storage, leaving other co-owners untouched. Co-owners may be copied
//    and destroyed on different threads.
//  * A copy of a view materializes a fresh owned buffer (one allocation).
//  * Moving preserves the mode: moving a view moves the borrow (still only
//    valid within the handler scope); moving an owned Bytes transfers its
//    share of the storage.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace crsm {

class Bytes {
 public:
  Bytes() = default;

  // Owning constructors (implicit: payloads are assigned from encoded
  // strings all over the tests and examples).
  Bytes(std::string s) { adopt(std::move(s)); }
  Bytes(const char* s) : Bytes(std::string(s)) {}

  // Borrows `v` without copying. Only the decode path should create these.
  [[nodiscard]] static Bytes view(std::string_view v) {
    Bytes b;
    b.view_ = v;
    b.is_view_ = true;
    return b;
  }

  // Copying always yields an owned Bytes: this is the copy-on-retain point.
  // An owned source is shared, a view is materialized.
  Bytes(const Bytes& o) : owner_(o.owner_), view_(o.view_) {
    if (o.is_view_) materialize();
  }
  Bytes& operator=(const Bytes& o) {
    // Copy first: `o` may be a view into the storage this assignment drops.
    if (this != &o) *this = Bytes(o);
    return *this;
  }

  Bytes(Bytes&& o) noexcept { steal(std::move(o)); }
  Bytes& operator=(Bytes&& o) noexcept {
    if (this != &o) steal(std::move(o));
    return *this;
  }

  Bytes& operator=(std::string s) {
    adopt(std::move(s));
    return *this;
  }
  Bytes& operator=(const char* s) { return *this = std::string(s); }

  [[nodiscard]] std::string_view view() const { return view_; }
  operator std::string_view() const { return view_; }  // NOLINT(google-explicit-constructor)

  [[nodiscard]] const char* data() const { return view_.data(); }
  [[nodiscard]] std::size_t size() const { return view_.size(); }
  [[nodiscard]] bool empty() const { return view_.empty(); }
  [[nodiscard]] bool is_view() const { return is_view_; }

  // Owned copy of the contents (for code that needs a std::string).
  [[nodiscard]] std::string str() const { return std::string(view_); }

  void clear() { steal(Bytes()); }

  void assign(std::size_t n, char c) {
    if (n == 0) return clear();
    auto buf = std::make_shared_for_overwrite<char[]>(n);
    std::memset(buf.get(), c, n);
    view_ = std::string_view(buf.get(), n);
    owner_ = std::move(buf);
    is_view_ = false;
  }

  // Converts a view in place into an owned copy (no-op when already owned).
  void ensure_owned() {
    if (is_view_) materialize();
  }

  // Strings and literals compare via the implicit owning constructors; a
  // dedicated string_view overload would make those comparisons ambiguous.
  friend bool operator==(const Bytes& a, const Bytes& b) {
    return a.view_ == b.view_;
  }

  friend std::ostream& operator<<(std::ostream& os, const Bytes& b) {
    return os << b.view_;
  }

 private:
  // Takes over `s` without copying its bytes: the string moves into the
  // shared block, whose address (and so the bytes') never changes.
  void adopt(std::string s) {
    if (s.empty()) return clear();
    auto owned = std::make_shared<const std::string>(std::move(s));
    view_ = *owned;
    owner_ = std::move(owned);
    is_view_ = false;
  }

  // Replaces the borrow with an owned copy of the bytes in one allocation.
  void materialize() {
    const std::string_view src = view_;
    if (src.empty()) return clear();
    auto buf = std::make_shared_for_overwrite<char[]>(src.size());
    std::memcpy(buf.get(), src.data(), src.size());
    view_ = std::string_view(buf.get(), src.size());
    owner_ = std::move(buf);
    is_view_ = false;
  }

  void steal(Bytes&& o) noexcept {
    owner_ = std::move(o.owner_);
    view_ = o.view_;
    is_view_ = o.is_view_;
    o.owner_.reset();
    o.view_ = std::string_view("", 0);
    o.is_view_ = false;
  }

  // Keeps owned bytes alive; null for a view and for the empty Bytes.
  std::shared_ptr<const void> owner_;
  // Always valid: points into owner_'s bytes or a borrow. Never null, so
  // data() can go straight to memcpy.
  std::string_view view_ = std::string_view("", 0);
  bool is_view_ = false;
};

}  // namespace crsm
