// Shard router: deterministic routing and full shard coverage. State
// isolation between replica groups is tested over real sockets in
// sharded_cluster_test.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "clockrsm/clock_rsm.h"
#include "kv/kv_store.h"
#include "shard/shard_router.h"
#include "test_util.h"
#include "util/topology.h"

namespace crsm::test {
namespace {

TEST(ShardRouter, DeterministicAcrossInstancesAndCalls) {
  const ShardRouter a(4), b(4);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const ShardId s = a.shard_of_key(key);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, a.shard_of_key(key)) << "unstable across calls: " << key;
    EXPECT_EQ(s, b.shard_of_key(key)) << "instances disagree: " << key;
  }
}

TEST(ShardRouter, SingleShardTakesEverything) {
  const ShardRouter r(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(r.shard_of_key("key-" + std::to_string(i)), 0u);
  }
}

TEST(ShardRouter, AllShardsReachable) {
  for (const std::size_t n : {2u, 4u, 8u}) {
    const ShardRouter r(n);
    std::set<ShardId> seen;
    for (int i = 0; i < 1000; ++i) {
      seen.insert(r.shard_of_key("key-" + std::to_string(i)));
    }
    EXPECT_EQ(seen.size(), n) << n << " shards, only " << seen.size()
                              << " reachable from 1000 keys";
  }
}

TEST(ShardRouter, CommandRoutingMatchesKeyRouting) {
  const ShardRouter r(4);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key-" + std::to_string(i);
    Command cmd = kv_put(/*client=*/1, /*seq=*/i + 1, key, "v");
    EXPECT_EQ(r.shard_of(cmd), r.shard_of_key(key));
  }
}

TEST(ShardRouter, RejectsZeroShards) {
  EXPECT_THROW(ShardRouter(0), std::invalid_argument);
}

}  // namespace
}  // namespace crsm::test
