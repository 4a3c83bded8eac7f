// Unit tests for the copy-on-retain Bytes payload type (common/bytes.h):
// the ownership rules the zero-copy receive path depends on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/command.h"

// Counts every global allocation, so tests can pin how many a Bytes
// operation makes.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace crsm {
namespace {

static_assert(sizeof(Bytes) == 16, "a payload handle is a pointer, a length and a flag");
static_assert(sizeof(Command) <= 32);

// Allocations made by `f` on this thread (the tests run single-threaded
// around it).
template <class F>
std::uint64_t allocations_in(F&& f) {
  const std::uint64_t before = g_allocations.load();
  f();
  return g_allocations.load() - before;
}

TEST(Bytes, DefaultIsEmptyOwned) {
  Bytes b;
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.is_view());
  EXPECT_EQ(b.size(), 0u);
}

TEST(Bytes, OwningConstructionAndAssignment) {
  Bytes b(std::string("hello"));
  EXPECT_FALSE(b.is_view());
  EXPECT_EQ(b, "hello");

  b = "literal";
  EXPECT_EQ(b, "literal");
  EXPECT_FALSE(b.is_view());

  b.assign(3, 'x');
  EXPECT_EQ(b, "xxx");

  b.clear();
  EXPECT_TRUE(b.empty());
}

TEST(Bytes, ViewBorrowsWithoutCopy) {
  const std::string backing = "payload-bytes";
  Bytes v = Bytes::view(backing);
  EXPECT_TRUE(v.is_view());
  EXPECT_EQ(v.data(), backing.data());  // no copy
  EXPECT_EQ(v, "payload-bytes");
}

TEST(Bytes, CopyOfViewOwns) {
  const std::string backing = "transient";
  Bytes v = Bytes::view(backing);

  Bytes stored = v;  // copy-on-retain
  EXPECT_FALSE(stored.is_view());
  EXPECT_NE(stored.data(), backing.data());
  EXPECT_EQ(stored, "transient");

  Bytes assigned;
  assigned = v;
  EXPECT_FALSE(assigned.is_view());
  EXPECT_EQ(assigned, "transient");
}

TEST(Bytes, CopiesOfOwnedShareStorage) {
  Bytes a(std::string(100, 'x'));
  const Bytes b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  Bytes c;
  c = b;
  EXPECT_FALSE(b.is_view());
  EXPECT_FALSE(c.is_view());
  EXPECT_EQ(b.data(), a.data());  // a refcount bump, not a byte copy
  EXPECT_EQ(c.data(), a.data());
  // A copy of a view still materializes, and copies of *that* share it.
  const std::string backing = "borrowed-bytes";
  const Bytes view = Bytes::view(backing);
  const Bytes owned = view;  // NOLINT(performance-unnecessary-copy-initialization)
  const Bytes again = owned;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_FALSE(owned.is_view());
  EXPECT_NE(owned.data(), backing.data());
  EXPECT_EQ(again.data(), owned.data());
}

TEST(Bytes, CopyOutlivesOriginalsReassignmentAndDestruction) {
  auto a = std::make_unique<Bytes>(std::string(64, 'o'));
  const Bytes b = *a;
  const char* shared = b.data();
  *a = "changed";  // replaces a's storage; b's bytes stay put
  EXPECT_EQ(b, std::string(64, 'o'));
  EXPECT_EQ(b.data(), shared);
  a->assign(8, 'z');
  a->clear();
  a.reset();  // the last other co-owner is gone
  EXPECT_EQ(b, std::string(64, 'o'));
  EXPECT_EQ(b.data(), shared);
}

TEST(Bytes, CopiesMadeAndDroppedOnTwoThreads) {
  // The reference count is the only shared mutable state: copies taken and
  // released concurrently must neither free the bytes early nor leak them
  // (run under TSan in CI).
  const Bytes original(std::string(256, 'q'));
  auto churn = [&original] {
    std::vector<Bytes> held;
    for (int i = 0; i < 20'000; ++i) {
      held.push_back(original);
      if (held.size() == 16) held.clear();
      Bytes moved = std::move(held.back());
      held.pop_back();
      EXPECT_EQ(moved.data(), original.data());
    }
  };
  std::thread t(churn);
  churn();
  t.join();
  EXPECT_EQ(original, std::string(256, 'q'));
}

TEST(Bytes, MovePreservesModeAndContents) {
  // Moving an owned Bytes transfers storage; the view must track the moved
  // string (its data pointer can change under SSO).
  Bytes owned(std::string(64, 'a'));  // beyond SSO
  const Bytes moved = std::move(owned);
  EXPECT_FALSE(moved.is_view());
  EXPECT_EQ(moved, std::string(64, 'a'));

  const std::string backing = "borrowed";
  Bytes view = Bytes::view(backing);
  const Bytes moved_view = std::move(view);
  EXPECT_TRUE(moved_view.is_view());
  EXPECT_EQ(moved_view.data(), backing.data());
}

TEST(Bytes, EnsureOwnedMaterializesInPlace) {
  const std::string backing = "pinned";
  Bytes b = Bytes::view(backing);
  b.ensure_owned();
  EXPECT_FALSE(b.is_view());
  EXPECT_NE(b.data(), backing.data());
  EXPECT_EQ(b, "pinned");
}

TEST(Bytes, SelfAssignmentIsSafe) {
  Bytes b("self");
  b = *&b;
  EXPECT_EQ(b, "self");
}

TEST(Bytes, EmptyOwnedAndEmptyViewCompareEqual) {
  const Bytes owned;
  const std::string backing;
  const Bytes view = Bytes::view(backing);
  EXPECT_TRUE(view.is_view());
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(owned, view);
  // Retaining an empty view owns nothing: no block is allocated.
  EXPECT_EQ(allocations_in([&] {
              const Bytes copy = view;
              EXPECT_FALSE(copy.is_view());
              EXPECT_TRUE(copy.empty());
              EXPECT_NE(copy.data(), nullptr);
            }),
            0u);
}

TEST(Bytes, ViewOfDefaultStringViewHasNonNullData) {
  const Bytes v = Bytes::view(std::string_view());
  EXPECT_TRUE(v.is_view());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_NE(v.data(), nullptr);  // data() goes straight to memcpy
  Bytes owned = v;
  owned.ensure_owned();
  EXPECT_NE(owned.data(), nullptr);
  EXPECT_EQ(owned, Bytes());
}

TEST(Bytes, MovedFromIsEmptyAndOwned) {
  Bytes owned(std::string(40, 'm'));
  const Bytes to = std::move(owned);
  EXPECT_EQ(to, std::string(40, 'm'));
  EXPECT_TRUE(owned.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(owned.is_view());
  EXPECT_NE(owned.data(), nullptr);

  const std::string backing = "borrowed";
  Bytes view = Bytes::view(backing);
  Bytes assigned;
  assigned = std::move(view);
  EXPECT_TRUE(assigned.is_view());
  EXPECT_TRUE(view.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(view.is_view());

  // A moved-from Bytes is reusable.
  owned = "again";
  EXPECT_EQ(owned, "again");
}

TEST(Bytes, OwningIsOneAllocationSharingIsNone) {
  const std::string backing(100, 'v');
  const Bytes view = Bytes::view(backing);
  Bytes copy;
  EXPECT_EQ(allocations_in([&] { copy = view; }), 1u);
  EXPECT_EQ(allocations_in([&] { const Bytes adopted(backing); }), 1u);
  EXPECT_EQ(allocations_in([&] {
              const Bytes shared = copy;  // NOLINT(performance-unnecessary-copy-initialization)
              EXPECT_EQ(shared.data(), copy.data());
            }),
            0u);
  Bytes materialized = view;
  EXPECT_EQ(allocations_in([&] { materialized = Bytes::view(backing); }), 0u);
  EXPECT_EQ(allocations_in([&] { materialized.ensure_owned(); }), 1u);
}

TEST(Bytes, AssignFillsAFreshBlock) {
  Bytes b("old");
  const Bytes co_owner = b;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(allocations_in([&] { b.assign(5, 'y'); }), 1u);
  EXPECT_EQ(b, "yyyyy");
  EXPECT_FALSE(b.is_view());
  EXPECT_EQ(co_owner, "old");  // the co-owner's bytes are untouched
  b.assign(0, 'z');
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.is_view());
}

TEST(Bytes, EmbeddedNulsSurviveEveryPath) {
  const std::string raw("a\0b\0\0c", 6);
  const Bytes owned(raw);
  EXPECT_EQ(owned.size(), 6u);
  EXPECT_EQ(owned.view(), raw);
  const Bytes view = Bytes::view(raw);
  const Bytes retained = view;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(retained.size(), 6u);
  EXPECT_EQ(retained.str(), raw);
  EXPECT_EQ(retained, owned);
  Bytes filled;
  filled.assign(3, '\0');
  EXPECT_EQ(filled.str(), std::string(3, '\0'));
}

TEST(Bytes, LengthOf4GiBOrMoreThrows) {
  // The handle keeps a 32-bit length. The check runs before any allocation,
  // so it is tested on its own rather than with a 4 GiB buffer.
  constexpr std::size_t kMax = 0xFFFFFFFFu;
  EXPECT_EQ(Bytes::checked_length(kMax), 0xFFFFFFFFu);
  EXPECT_THROW((void)Bytes::checked_length(kMax + 1), std::length_error);
  EXPECT_THROW((void)Bytes::checked_length(std::size_t{1} << 40), std::length_error);
}

TEST(Command, CopyRetainsViewPayloadAsOwned) {
  // The pattern every protocol relies on: a decoded message's command views
  // the receive buffer; storing it (map insert, log append) copies.
  std::string buffer = "kv-operation-bytes";
  Command wire_cmd;
  wire_cmd.client = 1;
  wire_cmd.seq = 2;
  wire_cmd.payload = Bytes::view(buffer);

  Command stored = wire_cmd;  // what pending_.emplace / log append do
  buffer.assign(buffer.size(), '?');  // receive buffer recycled

  EXPECT_FALSE(stored.payload.is_view());
  EXPECT_EQ(stored.payload, "kv-operation-bytes");
}

}  // namespace
}  // namespace crsm
