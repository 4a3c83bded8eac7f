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
//
// Layout: a Bytes is a 16-byte handle (data pointer, 32-bit length, view
// flag). Owned bytes live in one heap block, an atomic reference count
// followed by the bytes, so owning N bytes costs a single allocation of
// 8 + N bytes. The empty Bytes owns no block. A length of 4 GiB or more
// throws std::length_error; wire frames are capped far below that.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace crsm {

class Bytes {
 public:
  Bytes() = default;

  // Owning constructors (implicit: payloads are assigned from encoded
  // strings all over the tests and examples).
  Bytes(const std::string& s) : Bytes(copy_of(s)) {}
  Bytes(const char* s) : Bytes(copy_of(s)) {}

  // Borrows `v` without copying. Only the decode path should create these.
  [[nodiscard]] static Bytes view(std::string_view v) {
    Bytes b;
    b.data_ = v.data() != nullptr ? v.data() : "";
    b.size_ = checked_length(v.size());
    b.is_view_ = true;
    return b;
  }

  // Copying always yields an owned Bytes: this is the copy-on-retain point.
  // An owned source is shared, a view is materialized.
  Bytes(const Bytes& o) : data_(o.data_), size_(o.size_) {
    if (o.is_view_) {
      materialize();
    } else if (Block* b = block()) {
      b->refs.fetch_add(1);
    }
  }
  Bytes& operator=(const Bytes& o) {
    // Copy first: `o` may be a view into the storage this assignment drops.
    if (this != &o) *this = Bytes(o);
    return *this;
  }

  Bytes(Bytes&& o) noexcept { take(o); }
  Bytes& operator=(Bytes&& o) noexcept {
    if (this != &o) {
      release();
      take(o);
    }
    return *this;
  }

  ~Bytes() { release(); }

  Bytes& operator=(const std::string& s) { return *this = copy_of(s); }
  Bytes& operator=(const char* s) { return *this = copy_of(s); }

  [[nodiscard]] std::string_view view() const { return {data_, size_}; }
  operator std::string_view() const { return view(); }  // NOLINT(google-explicit-constructor)

  [[nodiscard]] const char* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool is_view() const { return is_view_; }

  // Owned copy of the contents (for code that needs a std::string).
  [[nodiscard]] std::string str() const { return std::string(view()); }

  void clear() { *this = Bytes(); }

  void assign(std::size_t n, char c) {
    Bytes b;
    if (n != 0) {
      char* bytes = allocate(checked_length(n));
      std::memset(bytes, c, n);
      b.data_ = bytes;
      b.size_ = static_cast<std::uint32_t>(n);
    }
    *this = std::move(b);
  }

  // Converts a view in place into an owned copy (no-op when already owned).
  void ensure_owned() {
    if (is_view_) materialize();
  }

  // The handle's length field: throws std::length_error for 4 GiB or more.
  [[nodiscard]] static std::uint32_t checked_length(std::size_t n) {
    if (n > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("Bytes: payload of 4 GiB or more");
    }
    return static_cast<std::uint32_t>(n);
  }

  // Strings and literals compare via the implicit owning constructors; a
  // dedicated string_view overload would make those comparisons ambiguous.
  friend bool operator==(const Bytes& a, const Bytes& b) {
    return a.view() == b.view();
  }

  friend std::ostream& operator<<(std::ostream& os, const Bytes& b) {
    return os << b.view();
  }

 private:
  // Header of an owned block; the bytes follow it.
  struct Block {
    std::atomic<std::size_t> refs{1};
  };

  // A fresh block with one owner and room for `n` bytes; returns the bytes.
  [[nodiscard]] static char* allocate(std::uint32_t n) {
    void* raw = ::operator new(sizeof(Block) + n);
    new (raw) Block();
    return static_cast<char*>(raw) + sizeof(Block);
  }

  [[nodiscard]] static Bytes copy_of(std::string_view src) {
    Bytes b = view(src);
    b.materialize();
    return b;
  }

  // This handle's block; null for a view and for the empty Bytes.
  [[nodiscard]] Block* block() const {
    if (is_view_ || size_ == 0) return nullptr;
    return std::launder(
        reinterpret_cast<Block*>(const_cast<char*>(data_) - sizeof(Block)));
  }

  // Replaces the borrow with an owned copy of the bytes in one allocation.
  void materialize() {
    is_view_ = false;
    if (size_ == 0) {
      data_ = "";
      return;
    }
    char* bytes = allocate(size_);
    std::memcpy(bytes, data_, size_);
    data_ = bytes;
  }

  // Drops this handle's share of its block, freeing it with the last owner.
  void release() noexcept {
    Block* b = block();
    if (b == nullptr || b->refs.fetch_sub(1) != 1) return;
    b->~Block();
    ::operator delete(static_cast<void*>(b));
  }

  // Takes `o`'s state and leaves `o` empty and owned.
  void take(Bytes& o) noexcept {
    data_ = o.data_;
    size_ = o.size_;
    is_view_ = o.is_view_;
    o.data_ = "";
    o.size_ = 0;
    o.is_view_ = false;
  }

  // Always valid: points into this handle's block or a borrow. Never null,
  // so data() can go straight to memcpy.
  const char* data_ = "";
  std::uint32_t size_ = 0;
  bool is_view_ = false;
};

static_assert(sizeof(Bytes) == 16);

}  // namespace crsm
