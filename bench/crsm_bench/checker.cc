#include "checker.h"

#include <algorithm>
#include <cstdio>

namespace crsm_bench {

namespace {

constexpr std::size_t kMaxReported = 20;

class Violations {
 public:
  void add(std::string line) {
    if (lines_.size() < kMaxReported) lines_.push_back(std::move(line));
    ++total_;
  }
  std::vector<std::string> finish() {
    if (total_ > lines_.size()) {
      lines_.push_back(std::to_string(total_) + " violations in total");
    }
    return std::move(lines_);
  }

 private:
  std::vector<std::string> lines_;
  std::size_t total_ = 0;
};

std::string op_name(const Op& op) {
  return "(" + std::to_string(op.client) + "," + std::to_string(op.seq) + ")";
}

bool acked(const Op& op) { return op.status == OpStatus::kDone; }

constexpr std::size_t kNone = ~std::size_t{0};

// The puts sent to one key in send order, with the earliest-acked op of
// every suffix, so "was a write sent after t acked before u?" is one binary
// search.
struct KeyPuts {
  std::vector<std::int64_t> sent;
  std::vector<std::size_t> earliest_ack;  // op index, or kNone
};

std::vector<KeyPuts> index_puts(const History& h, std::size_t nkeys) {
  std::vector<std::vector<std::size_t>> by_key(nkeys);
  for (std::size_t i = 0; i < h.ops.size(); ++i) {
    const Op& op = h.ops[i];
    if (op.kind == OpKind::kPut && op.key < nkeys && op.sent_ns >= 0) {
      by_key[op.key].push_back(i);
    }
  }
  std::vector<KeyPuts> out(nkeys);
  for (std::size_t k = 0; k < nkeys; ++k) {
    std::vector<std::size_t>& idx = by_key[k];
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return h.ops[a].sent_ns < h.ops[b].sent_ns;
    });
    KeyPuts& kp = out[k];
    kp.earliest_ack.assign(idx.size(), kNone);
    std::size_t best = kNone;
    for (std::size_t i = idx.size(); i-- > 0;) {
      const Op& op = h.ops[idx[i]];
      if (acked(op) && (best == kNone || op.done_ns < h.ops[best].done_ns)) {
        best = idx[i];
      }
      kp.earliest_ack[i] = best;
    }
    for (std::size_t i : idx) kp.sent.push_back(h.ops[i].sent_ns);
  }
  return out;
}

// Among the puts sent strictly after `after_ns`, the one acked first.
std::size_t earliest_ack_after(const KeyPuts& kp, std::int64_t after_ns) {
  const auto it = std::upper_bound(kp.sent.begin(), kp.sent.end(), after_ns);
  return it == kp.sent.end() ? kNone : kp.earliest_ack[it - kp.sent.begin()];
}

// The freshness rule for one read of `key`, sent at `sent_ns`, answered at
// `done_ns`, that observed write `value`. Returns "" when the read is
// allowed.
std::string check_read(const History& h, const KeyPuts& kp, std::uint16_t key,
                       std::uint64_t value, std::int64_t sent_ns,
                       std::int64_t done_ns) {
  auto where = [key] { return "read of key " + std::to_string(key); };
  if (value == kBadValue) return where() + " returned bytes that name no write";
  if (value == 0) {
    const std::size_t p = earliest_ack_after(kp, -1);
    if (p != kNone && h.ops[p].done_ns < sent_ns) {
      return where() + " found the key absent after write " + op_name(h.ops[p]) +
             " was acked";
    }
    return "";
  }
  const std::size_t idx = value - 1;
  if (idx >= h.ops.size() || h.ops[idx].kind != OpKind::kPut ||
      h.ops[idx].key != key) {
    return where() + " returned write id " + std::to_string(value) +
           ", which is no write to that key";
  }
  const Op& w = h.ops[idx];
  if (w.sent_ns < 0 || w.sent_ns > done_ns) {
    return where() + " returned write " + op_name(w) +
           ", sent after the read completed (a value from the future)";
  }
  if (!acked(w)) return "";  // an unacked write may take effect at any time
  const std::size_t p = earliest_ack_after(kp, w.done_ns);
  if (p != kNone && h.ops[p].done_ns < sent_ns) {
    return where() + " returned write " + op_name(w) + ", overwritten by " +
           op_name(h.ops[p]) + " which was acked before the read was sent";
  }
  return "";
}

}  // namespace

std::vector<std::string> check_history(const History& h, std::size_t nkeys) {
  Violations v;
  if (h.unmatched_replies > 0) {
    v.add(std::to_string(h.unmatched_replies) +
          " replies matched no request sent");
  }
  const std::vector<KeyPuts> key_puts = index_puts(h, nkeys);
  for (const Op& op : h.ops) {
    if (op.replies > 1) {
      v.add("request " + op_name(op) + " got " + std::to_string(op.replies) +
            " replies");
    }
    if (op.kind != OpKind::kGet || op.status != OpStatus::kDone) continue;
    if (op.key >= nkeys) {
      v.add("read of key " + std::to_string(op.key) + " outside the key space");
      continue;
    }
    std::string bad = check_read(h, key_puts[op.key], op.key, op.read_value,
                                 op.sent_ns, op.done_ns);
    if (!bad.empty()) v.add(op_name(op) + ": " + bad);
  }
  return v.finish();
}

std::vector<std::string> check_convergence(
    const History& h, std::size_t nkeys, const ReadBack& rb,
    const std::vector<ReplicaTotals>& totals) {
  Violations v;
  for (std::size_t r = 1; r < totals.size(); ++r) {
    if (totals[r].executed != totals[0].executed ||
        totals[r].kv_keys != totals[0].kv_keys) {
      v.add("replica " + std::to_string(r) + " executed " +
            std::to_string(totals[r].executed) + " commands over " +
            std::to_string(totals[r].kv_keys) + " keys, replica 0 " +
            std::to_string(totals[0].executed) + " over " +
            std::to_string(totals[0].kv_keys));
    }
  }
  const std::vector<KeyPuts> key_puts = index_puts(h, nkeys);
  for (std::size_t r = 0; r < rb.values.size(); ++r) {
    if (rb.values[r].size() != nkeys) {
      v.add("replica " + std::to_string(r) + " read back " +
            std::to_string(rb.values[r].size()) + " of " +
            std::to_string(nkeys) + " keys");
      continue;
    }
    for (std::size_t k = 0; k < nkeys; ++k) {
      const std::uint64_t value = rb.values[r][k];
      if (r > 0 && rb.values[0].size() == nkeys && value != rb.values[0][k]) {
        v.add("replicas diverge on key " + std::to_string(k) + ": replica " +
              std::to_string(r) + " holds write " + std::to_string(value) +
              ", replica 0 holds " + std::to_string(rb.values[0][k]));
      }
      std::string bad =
          check_read(h, key_puts[k], static_cast<std::uint16_t>(k), value,
                     rb.sent_ns, rb.done_ns);
      if (!bad.empty()) v.add("replica " + std::to_string(r) + " " + bad);
    }
  }
  return v.finish();
}

namespace {

Op put(std::uint32_t seq, std::uint16_t key, std::int64_t sent,
       std::int64_t done) {
  Op op;
  op.kind = OpKind::kPut;
  op.client = 1;
  op.seq = seq;
  op.key = key;
  op.sent_ns = sent;
  op.done_ns = done;
  op.status = OpStatus::kDone;
  op.replies = 1;
  return op;
}

Op get(std::uint32_t seq, std::uint16_t key, std::int64_t sent,
       std::int64_t done, std::uint64_t value) {
  Op op = put(seq, key, sent, done);
  op.kind = OpKind::kGet;
  op.read_value = value;
  return op;
}

// Key 0: put A [0,10], put B [20,30], get [40,50] -> B.
// Key 1: put C [0,10] and put D [5,15] overlap, so either may win.
History clean_history() {
  History h;
  h.ops = {put(1, 0, 0, 10), put(2, 0, 20, 30), get(3, 0, 40, 50, 2),
           put(4, 1, 0, 10), put(5, 1, 5, 15)};
  return h;
}

ReadBack clean_read_back() {
  ReadBack rb;
  rb.sent_ns = 100;
  rb.done_ns = 110;
  rb.values = {{2, 4}, {2, 4}, {2, 4}};
  return rb;
}

}  // namespace

int run_self_test() {
  constexpr std::size_t kKeys = 2;
  const std::vector<ReplicaTotals> even = {{5, 2}, {5, 2}, {5, 2}};
  struct Case {
    const char* name;
    History h;
    ReadBack rb;
    std::vector<ReplicaTotals> totals;
    bool bad;
  };
  std::vector<Case> cases;
  cases.push_back({"clean history", clean_history(), clean_read_back(), even,
                   false});
  {
    Case c{"stale read", clean_history(), clean_read_back(), even, true};
    c.h.ops[2].read_value = 1;  // A, although B was sent after A's ack
    cases.push_back(std::move(c));
  }
  {
    Case c{"duplicate reply", clean_history(), clean_read_back(), even, true};
    c.h.ops[1].replies = 2;
    cases.push_back(std::move(c));
  }
  {
    Case c{"value from the future", clean_history(), clean_read_back(), even,
           true};
    c.h.ops.push_back(put(6, 0, 60, 70));
    c.h.ops[2].read_value = 6;  // sent at 60, after the get's reply at 50
    cases.push_back(std::move(c));
  }
  {
    Case c{"reply to no request", clean_history(), clean_read_back(), even,
           true};
    c.h.unmatched_replies = 1;
    cases.push_back(std::move(c));
  }
  {
    Case c{"divergent replica", clean_history(), clean_read_back(), even,
           true};
    c.rb.values[1][1] = 5;  // D instead of C: fresh, but not what 0 holds
    cases.push_back(std::move(c));
  }
  {
    Case c{"divergent executed count", clean_history(), clean_read_back(),
           {{5, 2}, {4, 2}, {5, 2}}, true};
    cases.push_back(std::move(c));
  }
  {
    Case c{"acked write lost on one replica", clean_history(),
           clean_read_back(), even, true};
    c.rb.values[2][0] = 1;  // replica 2 lost B and still holds A
    cases.push_back(std::move(c));
  }

  int failures = 0;
  for (const Case& c : cases) {
    std::vector<std::string> found = check_history(c.h, kKeys);
    for (std::string& line : check_convergence(c.h, kKeys, c.rb, c.totals)) {
      found.push_back(std::move(line));
    }
    const bool flagged = !found.empty();
    const bool ok = flagged == c.bad;
    if (!ok) ++failures;
    std::printf("self-test %-32s %s%s%s\n", c.name,
                ok ? "ok" : "FAILED",
                flagged ? ": " : "", flagged ? found.front().c_str() : "");
  }
  std::printf("self-test: %s\n", failures == 0 ? "every violation flagged"
                                               : "checker missed a case");
  return failures == 0 ? 0 : 1;
}

}  // namespace crsm_bench
