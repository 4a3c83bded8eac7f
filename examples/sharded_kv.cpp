// Sharded KV: partition the key space across two independent Clock-RSM
// replica groups on loopback TCP and watch commands route, commit and stay
// isolated.
//
// Build & run:  ./build/examples/sharded_kv
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/latency_experiment.h"
#include "kv/kv_store.h"
#include "net/sync_client.h"
#include "runtime/sharded_tcp_cluster.h"
#include "shard/sharded_client.h"
#include "workload/workload.h"

using namespace crsm;

namespace {

Command kv_command(ClientId client, std::uint64_t seq, KvOp op,
                   const std::string& key, const std::string& value = "") {
  Command cmd;
  cmd.client = client;
  cmd.seq = seq;
  cmd.payload = KvRequest{op, key, value}.encode();
  return cmd;
}

}  // namespace

int main() {
  // 1. Two replica groups of three replicas each. Every node is a full
  //    NodeRuntime on its own loopback port that knows which group it
  //    serves, so it refuses commands whose key another group owns.
  ShardedTcpClusterOptions opts;
  opts.groups = 2;
  opts.replicas = 3;
  ShardedTcpCluster cluster(opts, clock_rsm_factory(opts.replicas),
                            [] { return std::make_unique<KvStore>(); });
  cluster.start();

  // 2. A shard-aware client: one connection per group (to replica 0 of
  //    each) and the same key router as the servers.
  ShardedSyncClient client(cluster.endpoints(0));
  const ClientId id = make_sharded_client_id(0, 0, 0);
  std::uint64_t seq = 0;

  // 3. Submit writes; the router hashes each key to its owning group.
  const std::vector<std::pair<std::string, std::string>> writes = {
      {"user:42", "alice"}, {"user:43", "bob"},
      {"cart:42", "book"},  {"cart:43", "pen"},
  };
  std::printf("routing %zu writes across %zu groups:\n", writes.size(),
              cluster.num_groups());
  for (const auto& [key, value] : writes) {
    const std::string out =
        client.call(kv_command(id, ++seq, KvOp::kPut, key, value), 5000);
    std::printf("  %s=%s -> group %u: %s\n", key.c_str(), value.c_str(),
                client.router().shard_of_key(key), out.c_str());
  }

  // 4. Each group executed only its own keys, so their digests evolve
  //    independently.
  for (ShardId g = 0; g < cluster.num_groups(); ++g) {
    std::printf("group %u executed %llu, digest %016llx\n", g,
                static_cast<unsigned long long>(cluster.executed(g, 0)),
                static_cast<unsigned long long>(
                    cluster.group(g).node(0).state_digest()));
  }

  // 5. Reads go to the key's owning group, served from its local state.
  for (const auto& [key, value] : writes) {
    const std::string got =
        client.read_call(kv_command(id, ++seq, KvOp::kGet, key), 5000);
    std::printf("read %s from group %u: %s\n", key.c_str(),
                client.router().shard_of_key(key),
                got.empty() ? "<none>" : got.c_str());
  }

  // 6. A write sent to the wrong group is bounced, never applied.
  const std::string& key0 = writes.front().first;
  const ShardId other = (client.router().shard_of_key(key0) + 1) %
                        static_cast<ShardId>(cluster.num_groups());
  net::SyncClient wrong("127.0.0.1", cluster.group(other).port(0));
  try {
    (void)wrong.call(kv_command(id, ++seq, KvOp::kPut, key0, "x"), 5000);
    std::printf("mis-routed write was applied\n");
    return 1;
  } catch (const net::WrongGroupError& e) {
    std::printf("group %u refused %s: owner is group %u\n", other, key0.c_str(),
                e.owner);
  }
  cluster.stop();
  return 0;
}
