#!/usr/bin/env bash
# Runs crsm_bench on two checkouts (or one checkout twice) in alternating
# sets and appends one JSON line per run to a results file for compare.py.
#
#   bench/crsm_bench/repeat.sh [-k SETS] [-n RUNS] [-w WORKLOADS] [-o RESULTS]
#                              [-t] CHECKOUT_A [CHECKOUT_B]
#
#   -k SETS       alternating sets (default 2)
#   -n RUNS       runs per side, workload and set (default 5)
#   -w WORKLOADS  space-separated workload names (default: all five)
#   -o RESULTS    output file (default results.jsonl)
#   -t            traced runs (--trace 1), which record the per-layer
#                 metrics (CPU, latency) instead of the end-to-end ones
#
# Every run lasts run_seconds of CHECKOUT_A's BENCHMARK.json, on both sides.
# Set i runs A then B when i is odd and B then A when it is even; run j of
# set i uses seed (i - 1) * RUNS + j on both sides. With one checkout, side
# B is the same build run again. Each checkout builds into its own
# .bench_build. The first line of the file records the host: core count,
# kernel, CPU model, the filesystem under CHECKOUT_A (where the WALs live)
# and the build type.
set -euo pipefail

usage() { sed -n '2,22p' "$0"; exit 2; }

SETS=2
RUNS=5
WORKLOADS="durable_write volatile_write read_heavy node_restart paper_wan5"
OUT=results.jsonl
TRACE=0
while getopts "k:n:w:o:t" opt; do
  case $opt in
    k) SETS=$OPTARG ;;
    n) RUNS=$OPTARG ;;
    w) WORKLOADS=$OPTARG ;;
    o) OUT=$OPTARG ;;
    t) TRACE=1 ;;
    *) usage ;;
  esac
done
shift $((OPTIND - 1))
[[ $# -ge 1 && $# -le 2 ]] || usage
A=$(cd "$1" && pwd)
B=$(cd "${2:-$1}" && pwd)
SECONDS_PER_RUN=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
                  "$A/BENCHMARK.json")

python3 - "$A" "$SETS" "$RUNS" "$SECONDS_PER_RUN" >> "$OUT" <<'EOF'
import json, os, platform, subprocess, sys
model = ""
with open("/proc/cpuinfo") as f:
    for line in f:
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
fs = subprocess.run(["stat", "-f", "-c", "%T", sys.argv[1]],
                    capture_output=True, text=True).stdout.strip()
print(json.dumps({"host": {"nproc": os.cpu_count(), "kernel": platform.release(),
                           "cpu": model, "wal_fs": fs,
                           "build": "RelWithDebInfo"},
                  "sets": int(sys.argv[2]), "runs": int(sys.argv[3]),
                  "seconds": int(sys.argv[4])}))
EOF

run_side() {  # side checkout set run workload seed
  local line rc=0
  line=$(cd "$2" && CARGO_TARGET_DIR="$2/.bench_build" \
           python3 bench/crsm_bench/run.py --workload "$5" --seed "$6" \
             --seconds "$SECONDS_PER_RUN" --trace "$TRACE" 2>/dev/null \
         | tail -n 1) || rc=$?
  [[ -n $line ]] || line=null
  printf '{"side": "%s", "set": %d, "run": %d, "workload": "%s", "seed": %d, "exit": %d, "result": %s}\n' \
      "$1" "$3" "$4" "$5" "$6" "$rc" "$line" >> "$OUT"
  echo "set $3 run $4 $5 side $1 seed $6: exit $rc" >&2
}

for ((set = 1; set <= SETS; set++)); do
  for workload in $WORKLOADS; do
    for ((run = 1; run <= RUNS; run++)); do
      seed=$(( (set - 1) * RUNS + run ))
      if (( set % 2 == 1 )); then
        run_side A "$A" $set $run "$workload" $seed
        run_side B "$B" $set $run "$workload" $seed
      else
        run_side B "$B" $set $run "$workload" $seed
        run_side A "$A" $set $run "$workload" $seed
      fi
    done
  done
done
