// Correctness checks over a generator history: one reply per request,
// read freshness, and cross-replica convergence after the drain.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace crsm_bench {

// After the drain, every replica's copy of the key space, read back through
// its stability-gated read path: values[r][k] is the write id replica r
// returned for key k (0 = absent, kBadValue = unparsable).
struct ReadBack {
  std::int64_t sent_ns = 0;  // before the first read-back request
  std::int64_t done_ns = 0;  // after the last read-back reply
  std::vector<std::vector<std::uint64_t>> values;
};

// Counters scraped from each replica's /metrics once the cluster is idle.
struct ReplicaTotals {
  std::uint64_t executed = 0;  // crsm_executed_total
  std::uint64_t kv_keys = 0;   // crsm_kv_keys
};

// Checks every op of `h`:
//  - each request got at most one reply, and every reply matched a request;
//  - a get never returns a write sent after the get's reply arrived (a
//    value from the future), nor a write w when another write to the same
//    key was sent after w's ack and acked before the get was sent (stale).
// Returns one line per violation (capped; the last line gives the total).
[[nodiscard]] std::vector<std::string> check_history(const History& h,
                                                     std::size_t nkeys);

// Checks that the replicas converged: equal executed and key counts, the
// same value for every key on every replica, and each of those values fresh
// under check_history's rule for a read sent after the drain. On a run that
// killed a replica, this is the check that every acked write survived.
[[nodiscard]] std::vector<std::string> check_convergence(
    const History& h, std::size_t nkeys, const ReadBack& rb,
    const std::vector<ReplicaTotals>& totals);

// Feeds the checks synthetic histories with one injected violation each (a
// stale read, a duplicate reply, a value from the future, a divergent
// replica, an acked write lost on one replica) plus a clean one. Returns 0
// when every violation is flagged and the clean history passes.
[[nodiscard]] int run_self_test();

}  // namespace crsm_bench
