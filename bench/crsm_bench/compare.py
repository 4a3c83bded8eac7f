#!/usr/bin/env python3
"""Compares two sides of a repeat.sh results file, metric by metric.

    python3 bench/crsm_bench/compare.py RESULTS [--calibrate [--report FILE]]

Default: one row per workload and metric with each side's median and
interquartile range (IQR), the fraction of paired runs (same set, same
seed) B wins, and a verdict:

  improved    B wins at least 9 in 10 pairs, ties counting for neither, and
              B's median is better than A's by more than A's IQR;
  unresolved  A's own spread (IQR / median) is wider than the metric's
              bound, and not every run of B is better than every run of A;
  worse       B's median is worse than A's by more than the bound;
  unchanged   otherwise.

Untraced runs (repeat.sh without -t) carry the end-to-end metrics; traced
runs (repeat.sh -t) carry the per-layer ones, such as the CPU and latency
metrics. A per-layer metric has no bound: it is worse when A wins at least
9 in 10 pairs and B's median is worse by more than A's IQR, the mirror of
improved. It exits 1 when any end-to-end row is worse.

--calibrate ignores sides and compares set 1 with set 2: for each workload
and metric, each set's median and spread (IQR / median), the shift of the
second median against the first (positive = worse), and the bound these
measurements suggest: max(0.10, 3 x the largest spread, the largest
shift), capped at 0.25. It exits 1 when a spread or shift exceeds the
current bound in BENCHMARK.json (setup_s's spread excepted).
"""
import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr(values):
    q1, _, q3 = quartiles(values)
    return q3 - q1


def spread(values):
    q2 = quartiles(values)[1]
    return iqr(values) / q2 if q2 else 0.0


def load(path):
    host, rows = None, []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if "host" in rec:
                host = rec
            else:
                rows.append(rec)
    return host, rows


def values_by(rows, key):
    """{(workload, metric): {key(row): [value, ...]}} over valid runs."""
    out = defaultdict(lambda: defaultdict(list))
    bad = 0
    for r in rows:
        res = r.get("result")
        if r["exit"] != 0 or not res or not res.get("correct"):
            bad += 1
            continue
        for name, m in res["metrics"].items():
            out[(r["workload"], name)][key(r)].append((r["set"], r["run"], m["value"]))
    return out, bad


def compare(rows, metrics):
    data, bad = values_by(rows, lambda r: r["side"])
    print("%-15s %-28s %12s %12s %12s %12s %6s  %s" %
          ("workload", "metric", "A median", "A IQR", "B median", "B IQR",
           "B wins", "verdict"))
    counts = defaultdict(int)
    gated_worse = 0
    for (workload, name), sides in sorted(data.items()):
        if name not in metrics:
            continue
        better, bound = metrics[name]
        a = sorted(sides.get("A", []))
        b = sorted(sides.get("B", []))
        av, bv = [x[2] for x in a], [x[2] for x in b]
        if not av or not bv or not any(av + bv):  # absent, or 0 where n/a
            continue
        aq1, amed, aq3 = quartiles(av)
        bq1, bmed, bq3 = quartiles(bv)
        sign = 1 if better == "lower" else -1  # positive change = worse
        pairs = list(zip(av, bv))
        wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
        losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
        win_frac = wins / len(pairs)
        change = sign * (bmed - amed) / amed if amed else 0.0
        a_spread = (aq3 - aq1) / amed if amed else 0.0
        all_better = max(sign * y for y in bv) < min(sign * x for x in av)
        if win_frac >= 0.9 and change < 0 and abs(bmed - amed) > aq3 - aq1:
            verdict = "improved"
        elif bound is None:
            clear = losses / len(pairs) >= 0.9 and abs(bmed - amed) > aq3 - aq1
            verdict = "worse" if clear and change > 0 else "unchanged"
        elif a_spread > bound:
            verdict = "unchanged" if all_better else "unresolved"
        elif change > bound:
            verdict = "worse"
        else:
            verdict = "unchanged"
        counts[verdict] += 1
        gated_worse += verdict == "worse" and bound is not None
        print("%-15s %-28s %12.6g %12.6g %12.6g %12.6g %5.0f%%  %s (%+.1f%%, %s)" %
              (workload, name, amed, aq3 - aq1, bmed, bq3 - bq1,
               100 * win_frac, verdict, 100 * change,
               "bound %.0f%%" % (100 * bound) if bound is not None else "per layer"))
    print("verdicts: " + ", ".join("%s %d" % kv for kv in sorted(counts.items())) +
          ("; %d runs failed or were invalid" % bad if bad else ""))
    return 1 if gated_worse else 0


def calibrate(rows, metrics, host):
    data, bad = values_by(rows, lambda r: r["set"])
    report = {"host": host["host"] if host else None, "metrics": []}
    status = 0
    print("%-15s %-16s %12s %8s %12s %8s %8s %8s" %
          ("workload", "metric", "median 1", "spread 1", "median 2", "spread 2",
           "shift", "bound"))
    suggested = defaultdict(float)
    for (workload, name), sets in sorted(data.items()):
        if name not in metrics or metrics[name][1] is None or 1 not in sets or 2 not in sets:
            continue
        better, bound = metrics[name]
        v1 = [x[2] for x in sets[1]]
        v2 = [x[2] for x in sets[2]]
        m1, m2 = statistics.median(v1), statistics.median(v2)
        s1, s2 = spread(v1), spread(v2)
        sign = 1 if better == "lower" else -1
        shift = sign * (m2 - m1) / m1 if m1 else 0.0
        suggested[name] = max(suggested[name], 3 * s1, 3 * s2, shift)
        over = (name != "setup_s" and max(s1, s2) > bound) or shift > bound
        if over:
            status = 1
        print("%-15s %-16s %12.6g %7.1f%% %12.6g %7.1f%% %+7.1f%% %7.0f%% %s" %
              (workload, name, m1, 100 * s1, m2, 100 * s2, 100 * shift,
               100 * bound, "OVER" if over else ""))
        report["metrics"].append({"workload": workload, "metric": name,
                                  "median": [m1, m2], "iqr": [iqr(v1), iqr(v2)],
                                  "iqr_over_median": [s1, s2],
                                  "shift": shift, "bound": bound, "runs": [len(v1), len(v2)]})
    print("suggested bounds: " + ", ".join(
        "%s %.2f" % (n, min(0.25, max(0.10, s))) for n, s in sorted(suggested.items())))
    if bad:
        print("%d runs failed or were invalid" % bad)
        status = 1
    return status, report


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("results")
    ap.add_argument("--calibrate", action="store_true")
    ap.add_argument("--report", help="--calibrate: also write the table as JSON here")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    metrics.update((m["name"], (m["better"], None)) for m in bench["per_layer"])
    host, rows = load(args.results)
    if args.calibrate:
        status, report = calibrate(rows, metrics, host)
        if args.report:
            with open(args.report, "w") as f:
                json.dump(report, f, indent=1)
                f.write("\n")
        return status
    return compare(rows, metrics)


if __name__ == "__main__":
    sys.exit(main())
