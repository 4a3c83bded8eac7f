#!/usr/bin/env bash
# End-to-end kill -9 / restart smoke over the real binaries: boots a
# 3-process durable cluster where every process hosts TWO replica groups
# (--groups 2: one loop thread, WAL dir and metrics namespace per group,
# port stride base+g), drives sharded client load across both groups,
# SIGKILLs one process — taking one replica of EVERY group down at once —
# restarts it from its --log-dir and drives load again through the
# restarted process, which only accepts submissions once recovery and
# catch-up complete on each group. The process stays down past the
# survivors' 1 s maximum reconnect backoff, yet each restarted group must
# be relinked to both peers within 0.5 s of coming up: it wakes the
# survivors' redial rather than waiting for their backoff. Once load stops,
# every replica of a group must report the same crsm_executed_total: the
# restarted one counts the commands its checkpoint covers. Finally every
# process must exit cleanly within 50 ms of a SIGTERM. Exercises
# exactly the path docs/OPERATIONS.md documents; CI runs it against the
# Release build.
#
# usage: tools/kill_restart_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD=${1:-build}
NODE=$BUILD/tools/crsm_node
CLIENT=$BUILD/tools/crsm_client
[[ -x $NODE && -x $CLIENT ]] || { echo "build tools first: cmake --build $BUILD -j --target crsm_node crsm_client"; exit 2; }

GROUPS_N=2
WORK=$(mktemp -d /tmp/crsm_smoke.XXXXXX)
# Port stride: group g of process p listens at its base port + g, so base
# ports (and metrics base ports) are spaced GROUPS_N apart. Every port stays
# below Linux's default ephemeral range (32768-60999): there, an outgoing
# connection's local port can take a listener's port first. The highest one
# is MBASE + 2*GROUPS_N + 1 = BASE + 105 <= 32104.
BASE=$(( 21000 + RANDOM % 11000 ))
P0=$BASE; P1=$(( BASE + GROUPS_N )); P2=$(( BASE + 2 * GROUPS_N ))
PEERS=127.0.0.1:$P0,127.0.0.1:$P1,127.0.0.1:$P2
declare -a PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  [[ ${KEEP_WORK:-0} = 1 ]] || rm -rf "$WORK"
}
trap cleanup EXIT

MBASE=$(( BASE + 100 ))  # process p serves group g at MBASE + p*GROUPS_N + g

base_port() { echo $(( BASE + $1 * GROUPS_N )); }

start_node() {  # $1 = replica id; sets NODE_PID
  "$NODE" --id "$1" --peers "$PEERS" --log-dir "$WORK/node-$1" \
      --groups $GROUPS_N \
      --checkpoint-every 2000 --stats-every 2 \
      --metrics-port $(( MBASE + $1 * GROUPS_N )) \
      2>>"$WORK/node-$1.log" &
  NODE_PID=$!
}

scrape_metrics() {  # $1 = replica id, $2 = group, $3 = output file
  curl -fsS --max-time 5 \
      "http://127.0.0.1:$(( MBASE + $1 * GROUPS_N + $2 ))/metrics" > "$3" \
    || { echo "metrics scrape of replica $1 group $2 failed"; return 1; }
  # Fail on malformed Prometheus text exposition: every non-comment line
  # must be `name{labels} value`, histograms must carry a +Inf bucket, the
  # series the pipeline always touches must be present, and every sample
  # must carry exactly this group's label — each group endpoint exports a
  # disjoint label set, so one Prometheus can scrape them all.
  python3 - "$3" "$2" <<'EOF'
import re, sys
lines = open(sys.argv[1]).read().splitlines()
group = sys.argv[2]
assert lines, "empty exposition"
series = set()
hist_types = set()
groups_seen = set()
for ln in lines:
    if not ln:
        continue
    if ln.startswith("#"):
        m = re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$", ln)
        assert m, f"malformed comment line: {ln!r}"
        if m.group(1) == "TYPE" and ln.rstrip().endswith("histogram"):
            hist_types.add(ln.split()[2])
        continue
    m = re.match(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? '
                 r'([0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|NaN)$', ln)
    assert m, f"malformed sample line: {ln!r}"
    series.add(m.group(1))
    g = re.search(r'group="([^"]*)"', m.group(2) or "")
    assert g, f"sample without a group label: {ln!r}"
    groups_seen.add(g.group(1))
for h in hist_types:
    assert any(f'{h}_bucket' in ln and 'le="+Inf"' in ln for ln in lines), \
        f"histogram {h} lacks a +Inf bucket"
for required in ("crsm_executed_total", "crsm_storage_appends_total",
                 "crsm_transport_messages_sent_total", "crsm_group"):
    assert required in series, f"missing series {required}"
assert groups_seen == {group}, \
    f"expected only group={group!r} series, saw {sorted(groups_seen)}"
print(f"  {sys.argv[1]}: {len(series)} series, {len(hist_types)} histograms, "
      f"well-formed, all labeled group=\"{group}\"")
EOF
}

executed_total() {  # $1 = replica id, $2 = group: its crsm_executed_total
  curl -fsS --max-time 5 "http://127.0.0.1:$(( MBASE + $1 * GROUPS_N + $2 ))/metrics" \
    | awk '$1 ~ /^crsm_executed_total/ { print $2 }'
}

connected_peers() {  # $1 = replica id, $2 = group: its crsm_transport_connected_peers
  curl -fsS --max-time 1 "http://127.0.0.1:$(( MBASE + $1 * GROUPS_N + $2 ))/metrics" 2>/dev/null \
    | awk '$1 ~ /^crsm_transport_connected_peers/ { print $2 }' || true
}

wait_for_port() {  # $1 = port
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; then exec 3>&-; return 0; fi
    sleep 0.1
  done
  echo "port $1 never came up"; return 1
}

check_phase() {  # $1 = json file, $2 = phase name
  python3 - "$1" "$2" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
ops, errors = r["ops"], r["errors"]
print(f"{sys.argv[2]}: {ops} ops, {errors} errors, "
      f"{r['cmds_per_sec']:.0f} cmds/s, p50 {r['latency_p50_ms']:.2f} ms "
      f"({r.get('groups', 1)} groups)")
assert ops > 0, f"{sys.argv[2]}: no operation completed"
assert errors == 0, f"{sys.argv[2]}: client errors"
EOF
}

servers_at() {  # $1 = replica id: that process's group endpoints, comma-joined
  local p; p=$(base_port "$1")
  echo "127.0.0.1:$p,127.0.0.1:$(( p + 1 ))"
}

echo "== boot 3-process x $GROUPS_N-group durable cluster (base ports $P0/$P1/$P2, state in $WORK)"
for i in 0 1 2; do start_node "$i"; PIDS[$i]=$NODE_PID; done
for i in 0 1 2; do
  for g in 0 1; do wait_for_port $(( $(base_port $i) + g )); done
done

echo "== phase 1: drive sharded load through process 0 (both groups)"
"$CLIENT" --servers "$(servers_at 0)" --clients 4 --duration 2 --json > "$WORK/phase1.json"
check_phase "$WORK/phase1.json" "phase 1"

echo "== scrape /metrics from every group endpoint before the kill"
for i in 0 1 2; do
  for g in 0 1; do scrape_metrics "$i" "$g" "$WORK/metrics-pre-$i-g$g.txt"; done
done

echo "== kill -9 process 2 (one replica of BOTH groups at once)"
kill -9 "${PIDS[2]}"
wait "${PIDS[2]}" 2>/dev/null || true
# Longer than the survivors' 1 s maximum reconnect backoff: without the
# restarted process's wake they would redial it up to 1 s late.
sleep 1.5

echo "== restart process 2 from $WORK/node-2"
start_node 2; PIDS[2]=$NODE_PID
for g in 0 1; do wait_for_port $(( $(base_port 2) + g )); done

echo "== each restarted group relinks to both peers within 0.5 s"
deadline=$(( $(date +%s%N) + 500000000 ))
for g in 0 1; do
  until [[ $(connected_peers 2 "$g") == 2 ]]; do
    if (( $(date +%s%N) > deadline )); then
      echo "restarted group $g: $(connected_peers 2 "$g") of 2 peer links after 0.5 s"
      exit 1
    fi
    sleep 0.02
  done
  echo "  group $g: crsm_transport_connected_peers 2"
done

echo "== phase 2: drive sharded load through the RESTARTED process 2"
# Each group of process 2 defers client submissions until its WAL replay +
# TCP catch-up finish, so completed ops here prove recovery on both groups.
"$CLIENT" --servers "$(servers_at 2)" --clients 4 --duration 2 --json > "$WORK/phase2.json"
check_phase "$WORK/phase2.json" "phase 2"

REC=$(grep -c "recovering from prior state" "$WORK/node-2.log" || true)
[[ $REC -ge $GROUPS_N ]] \
  || { echo "restarted process reported recovery on $REC/$GROUPS_N groups"; tail -8 "$WORK/node-2.log"; exit 1; }

echo "== scrape /metrics from both groups of the restarted process"
for g in 0 1; do scrape_metrics 2 "$g" "$WORK/metrics-post-2-g$g.txt"; done
# Counters reset on restart but phase 2 ran through process 2, so each
# group's executed counter must be live again.
for g in 0 1; do
  python3 - "$WORK/metrics-post-2-g$g.txt" "$g" <<'EOF'
import re, sys
for ln in open(sys.argv[1]):
    m = re.match(r'^crsm_executed_total(\{[^}]*\})? ([0-9.eE+]+)$', ln)
    if m:
        assert float(m.group(2)) > 0, \
            f"restarted group {sys.argv[2]} executed nothing"
        break
else:
    sys.exit(f"restarted group {sys.argv[2]} exports no crsm_executed_total")
EOF
done

echo "== every replica of each group agrees on crsm_executed_total"
for g in 0 1; do
  agreed=0
  for _ in $(seq 1 50); do
    counts=("$(executed_total 0 "$g")" "$(executed_total 1 "$g")" "$(executed_total 2 "$g")")
    if [[ -n ${counts[0]} && ${counts[0]} == "${counts[1]}" && ${counts[1]} == "${counts[2]}" ]]; then
      agreed=1; break
    fi
    sleep 0.2
  done
  [[ $agreed = 1 ]] \
    || { echo "group $g: replicas 0/1/2 executed ${counts[*]} commands"; exit 1; }
  echo "  group $g: every replica executed ${counts[0]} commands"
done

echo "== SIGTERM: every process exits cleanly within 50 ms"
for i in 0 1 2; do
  t0=$(date +%s%N)
  kill -TERM "${PIDS[$i]}"
  wait "${PIDS[$i]}" || { echo "process $i exited with status $? on SIGTERM"; exit 1; }
  ms=$(( ($(date +%s%N) - t0) / 1000000 ))
  echo "  process $i exited $ms ms after SIGTERM"
  (( ms <= 50 )) || { echo "process $i took $ms ms to exit (bound 50 ms)"; exit 1; }
done
PIDS=()

echo "== smoke OK: killed process rejoined and served traffic on both groups"
