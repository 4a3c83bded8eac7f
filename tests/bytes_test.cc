// Unit tests for the copy-on-retain Bytes payload type (common/bytes.h):
// the ownership rules the zero-copy receive path depends on.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/command.h"

namespace crsm {
namespace {

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
