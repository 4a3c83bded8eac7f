// The per-layer cost ledger. Server-side layers come from deltas of the
// nodes' /metrics series across the fixed-rate window; the codec, KV and
// WAL layers come from timing the library's public functions on the
// workload's own commands (replays).
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench.h"

namespace crsm_bench {

// Every sample of one Prometheus text exposition, keyed by the series as
// printed (name plus labels, e.g. `crsm_stage_ack_us_bucket{le="256"}`).
using Scrape = std::unordered_map<std::string, double>;

[[nodiscard]] Scrape parse_prometheus(std::string_view text);

// acc += end - start, series by series (a series absent from `start`
// counts from zero: a restarted process).
void add_delta(Scrape& acc, const Scrape& end, const Scrape& start);

[[nodiscard]] double series(const Scrape& s, const std::string& name);

// Quantile q of histogram `hist` from its cumulative power-of-two buckets,
// interpolated within the bucket. Observations at or below `floor_le` are
// left out (passes that did no fsync record 0 us). 0 when empty.
[[nodiscard]] double hist_quantile(const Scrape& s, const std::string& hist,
                                   double q, double floor_le = 0);
[[nodiscard]] double hist_mean(const Scrape& s, const std::string& hist);

// The server-side layers: net, transport, clockrsm, storage, runtime.
// `delta` sums every replica's window delta; `ops` are the client
// operations completed in the window.
struct ServerWindow {
  Scrape delta;
  double ops = 0;
  double window_s = 0;
  double pending_max = 0;  // largest crsm_proto_pending scraped
  double cpu_us_per_op = 0;  // utime + stime of the nodes per op
  double cpu_share_max = 0;  // busiest node's share of cluster CPU
};
void add_server_layers(Metrics& out, const ServerWindow& w);

// Replays on the workload's commands (`ops` of one run's history).
struct ReplayResult {
  double encode_ns_per_msg = 0;
  double decode_ns_per_msg = 0;
  double kv_apply_ns_per_op = 0;
  double wal_sync_us_p50 = 0;
};
// `wal_dir` is a scratch directory on the WAL's filesystem;
// `appends_per_sync` sets the batch the FileLog replay appends per sync.
[[nodiscard]] ReplayResult run_replays(const History& h,
                                       const std::string& wal_dir,
                                       double appends_per_sync);

}  // namespace crsm_bench
