#!/usr/bin/env bash
# Builds the tree and runs the full test suite under AddressSanitizer +
# UBSan (the TURBDB_SANITIZE CMake option), then runs the replication
# failover tests under ThreadSanitizer (TURBDB_SANITIZE=thread). Usage:
#
#   tools/check.sh              # sanitizer build + ctest
#   BUILD_DIR=out tools/check.sh
#   TURBDB_SANITIZE=thread tools/check.sh   # TSan-only pass
#
# A plain (non-sanitized) pass is the normal `cmake -B build && ctest`
# flow; this script exists so CI and pre-merge checks exercise the
# memory-, UB- and race-checked configurations too.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-"$ROOT/build-sanitize"}"
JOBS="${JOBS:-$(nproc)}"
SANITIZE="${TURBDB_SANITIZE:-ON}"

# This build compiles every target (src, tools, tests, bench, examples)
# with TURBDB_WERROR, so a new -Wall -Wextra warning anywhere fails the
# check.
cmake -B "$BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTURBDB_SANITIZE="$SANITIZE" \
  -DTURBDB_WERROR=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
# Per-test timeout so a distributed-path hang (e.g. a dead node that is
# not detected) fails the run instead of wedging it.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" --timeout 300

# The multi-process integration tests (labeled `multiprocess`) fork real
# turbdb_node processes; run them once more serially with per-test
# timeouts so their output is easy to find and flaky port races do not
# hide behind parallel scheduling.
ctest --test-dir "$BUILD_DIR" -L multiprocess --output-on-failure \
  --timeout 180

# A dedicated TURBDB_FAULTS=ON build (the registry is compiled out
# everywhere else). The streaming smoke and the self-heal drill below run
# its binaries; its `chaos`-labeled tests run near the end.
FAULTS_DIR="$ROOT/build-faults-check"
cmake -B "$FAULTS_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTURBDB_FAULTS=ON \
  -DTURBDB_BUILD_BENCHMARKS=OFF -DTURBDB_BUILD_EXAMPLES=OFF
cmake --build "$FAULTS_DIR" -j "$JOBS"

# Bounded-memory streaming smoke check against the real binaries: a
# result far larger than the server's reply-byte budget must stream out
# whole (exit 0) while the governor's high-water mark stays under the
# budget. Exercises turbdb_server admission flags + turbdb_cli --stream
# end to end, not just the in-process test harnesses.
SMOKE_PORT="${SMOKE_PORT:-7979}"
SMOKE_BUDGET_MB=2
"$FAULTS_DIR/tools/turbdb_server" --port "$SMOKE_PORT" --n 64 \
  --result-budget-mb "$SMOKE_BUDGET_MB" --stream-chunk-points 4096 \
  --max-concurrent-queries 4 &
SMOKE_PID=$!
trap 'kill "$SMOKE_PID" 2>/dev/null || true' EXIT
CLI="$FAULTS_DIR/tools/turbdb_cli"
for _ in $(seq 1 60); do
  if "$CLI" --connect "127.0.0.1:$SMOKE_PORT" ping >/dev/null 2>&1; then
    break
  fi
  sleep 0.5
done
# Threshold 0.2rms over a 64^3 grid: several MB of points, all streamed.
"$CLI" --connect "127.0.0.1:$SMOKE_PORT" --stream \
  threshold vorticity 0.2rms >/dev/null
PEAK=$("$CLI" --connect "127.0.0.1:$SMOKE_PORT" server-stats \
  | sed -n 's/.*result bytes held [0-9]* (peak \([0-9]*\)).*/\1/p')
kill "$SMOKE_PID" 2>/dev/null || true
wait "$SMOKE_PID" 2>/dev/null || true
trap - EXIT
if [ -z "$PEAK" ] || [ "$PEAK" -eq 0 ]; then
  echo "streaming smoke: no peak reply bytes reported" >&2
  exit 1
fi
if [ "$PEAK" -gt $((SMOKE_BUDGET_MB * 1024 * 1024)) ]; then
  echo "streaming smoke: peak reply bytes $PEAK exceed the" \
    "$SMOKE_BUDGET_MB MiB budget" >&2
  exit 1
fi
echo "streaming smoke: peak reply bytes $PEAK within the" \
  "$SMOKE_BUDGET_MB MiB budget"

# Mediator-cache smoke against the real binaries: warm the cache via the
# CacheWarm RPC, pin it, and run the TCP cache bench (cold / warm /
# subsumed cycle) — it fails unless the server reports cache hits, and
# must leave a machine-readable BENCH_cache.json behind. Exercises
# --mediator-cache-mb plus the DropCache / CacheStats / CacheWarm /
# CachePin RPC handlers end to end.
CACHE_SMOKE_PORT="${CACHE_SMOKE_PORT:-7981}"
CACHE_JSON="$BUILD_DIR/BENCH_cache_smoke.json"
rm -f "$CACHE_JSON"
"$BUILD_DIR/tools/turbdb_server" --port "$CACHE_SMOKE_PORT" --n 32 \
  --nodes 2 --mediator-cache-mb 64 &
CACHE_SMOKE_PID=$!
trap 'kill "$CACHE_SMOKE_PID" 2>/dev/null || true' EXIT
CLI="$BUILD_DIR/tools/turbdb_cli"
for _ in $(seq 1 60); do
  if "$CLI" --connect "127.0.0.1:$CACHE_SMOKE_PORT" ping >/dev/null 2>&1; then
    break
  fi
  sleep 0.5
done
"$CLI" --connect "127.0.0.1:$CACHE_SMOKE_PORT" cache-warm vorticity 1.0 \
  >/dev/null
"$CLI" --connect "127.0.0.1:$CACHE_SMOKE_PORT" cache-pin vorticity >/dev/null
"$CLI" --connect "127.0.0.1:$CACHE_SMOKE_PORT" cache-stats >/dev/null
TURBDB_TOPOLOGY="127.0.0.1:$CACHE_SMOKE_PORT" TURBDB_BENCH_N=32 \
  TURBDB_BENCH_JSON="$CACHE_JSON" "$BUILD_DIR/bench/table1_fig6_cache"
kill "$CACHE_SMOKE_PID" 2>/dev/null || true
wait "$CACHE_SMOKE_PID" 2>/dev/null || true
trap - EXIT
if [ ! -s "$CACHE_JSON" ]; then
  echo "mediator-cache smoke: $CACHE_JSON was not written" >&2
  exit 1
fi
echo "mediator-cache smoke: ok ($CACHE_JSON)"

# Multi-tenant load-harness smoke against the real binaries: a two-shard
# server with per-tenant admission caps, driven by the open-loop
# generator with a nominal and a flooding tenant over the mixed
# threshold / streamed / FoF workload. The harness itself exits nonzero
# on any protocol error or an all-failed run; on top of that, the
# BENCH_load.json it writes must report nonzero latency percentiles for
# every tenant (zeros would mean the open-loop clock or the percentile
# math regressed silently).
LOAD_SMOKE_PORT="${LOAD_SMOKE_PORT:-7983}"
LOAD_JSON="$BUILD_DIR/BENCH_load_smoke.json"
rm -f "$LOAD_JSON"
"$BUILD_DIR/tools/turbdb_server" --port "$LOAD_SMOKE_PORT" --n 32 \
  --nodes 2 --timesteps 1 --max-concurrent-queries 8 \
  --per-tenant-max-queries 2 &
LOAD_SMOKE_PID=$!
trap 'kill "$LOAD_SMOKE_PID" 2>/dev/null || true' EXIT
CLI="$BUILD_DIR/tools/turbdb_cli"
for _ in $(seq 1 60); do
  if "$CLI" --connect "127.0.0.1:$LOAD_SMOKE_PORT" ping >/dev/null 2>&1; then
    break
  fi
  sleep 0.5
done
"$BUILD_DIR/tools/turbdb_loadgen" --connect "127.0.0.1:$LOAD_SMOKE_PORT" \
  --tenant nominal=10 --tenant flooder=100 --connections 4 \
  --duration-s 4 --n 32 --json "$LOAD_JSON"
# The per-tenant counters must also be visible over the stats RPC.
"$CLI" --connect "127.0.0.1:$LOAD_SMOKE_PORT" server-stats --json \
  | grep -q '"name": "nominal"' || {
    echo "loadgen smoke: tenant counters missing from server-stats" >&2
    exit 1
  }
kill "$LOAD_SMOKE_PID" 2>/dev/null || true
wait "$LOAD_SMOKE_PID" 2>/dev/null || true
trap - EXIT
if [ ! -s "$LOAD_JSON" ]; then
  echo "loadgen smoke: $LOAD_JSON was not written" >&2
  exit 1
fi
for q in p50_ms p99_ms p999_ms; do
  if grep -q "\"$q\": 0\.000" "$LOAD_JSON"; then
    echo "loadgen smoke: a tenant reported a zero $q percentile" >&2
    exit 1
  fi
done
if ! grep -q '"protocol_errors": 0,\?$' "$LOAD_JSON"; then
  echo "loadgen smoke: protocol errors reported in $LOAD_JSON" >&2
  exit 1
fi
echo "loadgen smoke: ok ($LOAD_JSON)"

# Elasticity rebalance drill against the real binaries: two turbdb_node
# shards behind a turbdb_server mediator, with turbdb_loadgen running
# open-loop the whole time. A third node joins the live cluster via
# `turbdb_node --join`, a rebalance cuts ranges over to it, and the
# joiner is decommissioned again — the load harness must finish with
# zero failed queries (sheds are fine, errors are not), and a threshold
# spot-check taken before the join must be byte-identical after the
# rebalance and after the decommission.
REBAL_NODE0_PORT="${REBAL_NODE0_PORT:-7985}"
REBAL_NODE1_PORT="${REBAL_NODE1_PORT:-7986}"
REBAL_SERVER_PORT="${REBAL_SERVER_PORT:-7987}"
REBAL_JOIN_PORT="${REBAL_JOIN_PORT:-7988}"
REBAL_DIR="$BUILD_DIR/rebalance_drill"
REBAL_JSON="$BUILD_DIR/BENCH_load_rebalance.json"
rm -rf "$REBAL_DIR" "$REBAL_JSON"
mkdir -p "$REBAL_DIR"
REBAL_PEERS="127.0.0.1:$REBAL_NODE0_PORT,127.0.0.1:$REBAL_NODE1_PORT"
NODE_BIN="$BUILD_DIR/tools/turbdb_node"
"$NODE_BIN" --node-id 0 --bind 127.0.0.1 --port "$REBAL_NODE0_PORT" \
  --peers "$REBAL_PEERS" --storage-dir "$REBAL_DIR" &
REBAL_PIDS=("$!")
"$NODE_BIN" --node-id 1 --bind 127.0.0.1 --port "$REBAL_NODE1_PORT" \
  --peers "$REBAL_PEERS" --storage-dir "$REBAL_DIR" &
REBAL_PIDS+=("$!")
"$BUILD_DIR/tools/turbdb_server" --port "$REBAL_SERVER_PORT" --n 32 \
  --timesteps 1 --topology "$REBAL_PEERS" --storage-dir "$REBAL_DIR" \
  --mediator-cache-mb 0 &
REBAL_PIDS+=("$!")
trap 'kill "${REBAL_PIDS[@]}" 2>/dev/null || true' EXIT
CLI="$BUILD_DIR/tools/turbdb_cli"
for _ in $(seq 1 120); do
  if "$CLI" --connect "127.0.0.1:$REBAL_SERVER_PORT" ping >/dev/null 2>&1; then
    break
  fi
  sleep 0.5
done
# Spot-check. The modeled-time line and the cache hit/miss marker vary
# run to run; everything else — point count, threshold, every listed
# point — must not move across the join/rebalance/decommission cycle.
rebal_spot() {
  "$CLI" --connect "127.0.0.1:$REBAL_SERVER_PORT" threshold vorticity 2rms \
    | grep -v "modeled time" | sed 's/ \[cache [a-z]*\]$//' \
    > "$REBAL_DIR/spot_$1.txt"
  if [ "$1" != before ] &&
      ! diff "$REBAL_DIR/spot_before.txt" "$REBAL_DIR/spot_$1.txt"; then
    echo "rebalance drill: threshold results changed across the $1" >&2
    exit 1
  fi
}
rebal_spot before
"$BUILD_DIR/tools/turbdb_loadgen" --connect "127.0.0.1:$REBAL_SERVER_PORT" \
  --tenant drill=20 --connections 2 --duration-s 20 --n 32 \
  --deadline-ms 20000 --json "$REBAL_JSON" &
REBAL_LOAD_PID=$!
REBAL_PIDS+=("$REBAL_LOAD_PID")
"$NODE_BIN" --join "127.0.0.1:$REBAL_SERVER_PORT" --bind 127.0.0.1 \
  --port "$REBAL_JOIN_PORT" --storage-dir "$REBAL_DIR" \
  --uuid drill-joiner &
REBAL_PIDS+=("$!")
REBAL_JOINED=""
for _ in $(seq 1 120); do
  if "$CLI" --connect "127.0.0.1:$REBAL_SERVER_PORT" membership --json \
      2>/dev/null | grep -q '"uuid": "drill-joiner".*"role": "shard"'; then
    REBAL_JOINED=yes
    break
  fi
  sleep 0.5
done
if [ -z "$REBAL_JOINED" ]; then
  echo "rebalance drill: joiner never reached the shard role" >&2
  exit 1
fi
"$CLI" --connect "127.0.0.1:$REBAL_SERVER_PORT" rebalance --to-shard 2 \
  --max-ranges 4 | tee "$REBAL_DIR/rebalance.txt"
if ! grep -q -- "-> shard 2" "$REBAL_DIR/rebalance.txt"; then
  echo "rebalance drill: no range moved onto the joined shard" >&2
  exit 1
fi
rebal_spot rebalance
# The per-node status rows must carry the membership generation and WAL
# lag columns (append-only JSON keys).
"$CLI" --topology "$REBAL_PEERS,127.0.0.1:$REBAL_JOIN_PORT" \
  cluster-status --json | grep -q '"wal_pending_records"' || {
    echo "rebalance drill: cluster-status --json lacks WAL lag fields" >&2
    exit 1
  }
"$CLI" --connect "127.0.0.1:$REBAL_SERVER_PORT" decommission 2 >/dev/null
rebal_spot decommission
if ! wait "$REBAL_LOAD_PID"; then
  echo "rebalance drill: loadgen reported failures" >&2
  exit 1
fi
kill "${REBAL_PIDS[@]}" 2>/dev/null || true
wait 2>/dev/null || true
trap - EXIT
# Sheds and deadline-stretching are acceptable under sanitizers; queries
# that *failed* — unreachable peers, protocol breaks, typed errors — are
# not (loadgen prints the first error of each failing kind on stderr).
if grep -Eq '"(unreachable|protocol_errors|other_errors)": [1-9]' \
    "$REBAL_JSON"; then
  echo "rebalance drill: failed queries recorded in $REBAL_JSON" >&2
  exit 1
fi
echo "rebalance drill: ok ($REBAL_JSON)"

# Self-healing bit-flip drill against the real binaries: a replicated
# (R=2) four-node cluster under open-loop load while one replica's
# store suffers genuine on-disk bit rot (the store.bit_flip fault site,
# so this rides the TURBDB_FAULTS build). The load harness must finish
# with zero failed queries and zero client-visible corruption errors —
# corrupt reads fail over to the healthy sibling — the mediator must
# report the corruption failovers, and a triggered scrub must repair
# the damage: a second `turbdb_cli scrub --json` pass ends fully clean
# with nothing quarantined.
HEAL_NODE0_PORT="${HEAL_NODE0_PORT:-7990}"
HEAL_NODE1_PORT="${HEAL_NODE1_PORT:-7991}"
HEAL_NODE2_PORT="${HEAL_NODE2_PORT:-7992}"
HEAL_NODE3_PORT="${HEAL_NODE3_PORT:-7993}"
HEAL_SERVER_PORT="${HEAL_SERVER_PORT:-7994}"
HEAL_DIR="$FAULTS_DIR/self_heal_drill"
HEAL_JSON="$FAULTS_DIR/BENCH_load_self_heal.json"
rm -rf "$HEAL_DIR" "$HEAL_JSON"
mkdir -p "$HEAL_DIR"
HEAL_PEERS="127.0.0.1:$HEAL_NODE0_PORT,127.0.0.1:$HEAL_NODE1_PORT"
HEAL_PEERS="$HEAL_PEERS,127.0.0.1:$HEAL_NODE2_PORT,127.0.0.1:$HEAL_NODE3_PORT"
HEAL_NODE_BIN="$FAULTS_DIR/tools/turbdb_node"
HEAL_PIDS=()
HEAL_PORTS=("$HEAL_NODE0_PORT" "$HEAL_NODE1_PORT" "$HEAL_NODE2_PORT" \
  "$HEAL_NODE3_PORT")
for i in 0 1 2 3; do
  HEAL_FAULTS=()
  if [ "$i" -eq 0 ]; then
    # Node 0 is the primary of replica group 0: its next three record
    # reads each XOR one stored payload byte on disk before reading.
    HEAL_FAULTS=(--faults "store.bit_flip=delay:3:3")
  fi
  "$HEAL_NODE_BIN" --node-id "$i" --bind 127.0.0.1 \
    --port "${HEAL_PORTS[$i]}" --peers "$HEAL_PEERS" \
    --replication-factor 2 --storage-dir "$HEAL_DIR" \
    "${HEAL_FAULTS[@]}" &
  HEAL_PIDS+=("$!")
done
"$FAULTS_DIR/tools/turbdb_server" --port "$HEAL_SERVER_PORT" --n 32 \
  --timesteps 1 --topology "$HEAL_PEERS" --replication-factor 2 \
  --storage-dir "$HEAL_DIR" --mediator-cache-mb 0 &
HEAL_PIDS+=("$!")
trap 'kill "${HEAL_PIDS[@]}" 2>/dev/null || true' EXIT
CLI="$FAULTS_DIR/tools/turbdb_cli"
for _ in $(seq 1 120); do
  if "$CLI" --connect "127.0.0.1:$HEAL_SERVER_PORT" ping >/dev/null 2>&1; then
    break
  fi
  sleep 0.5
done
# Open-loop load while the rot lands. The harness exits nonzero on any
# client-visible corruption error, so its exit status is the assertion
# that every query was served clean off a healthy replica.
"$FAULTS_DIR/tools/turbdb_loadgen" --connect "127.0.0.1:$HEAL_SERVER_PORT" \
  --tenant drill=20 --connections 2 --duration-s 10 --n 32 \
  --deadline-ms 20000 --json "$HEAL_JSON"
if grep -Eq '"(unreachable|protocol_errors|corruption_errors|other_errors)": [1-9]' \
    "$HEAL_JSON"; then
  echo "self-heal drill: failed queries recorded in $HEAL_JSON" >&2
  exit 1
fi
# The failovers the rot caused are visible in the mediator's counters.
"$CLI" --connect "127.0.0.1:$HEAL_SERVER_PORT" server-stats --json \
  | grep -Eq '"corruption_failovers": [1-9]' || {
    echo "self-heal drill: no corruption failovers counted" >&2
    exit 1
  }
# Trigger a scrub everywhere: the damaged replica verifies, quarantines
# and repairs from its healthy sibling via the Merkle/RepairRange flow.
"$CLI" --topology "$HEAL_PEERS" scrub --json > "$HEAL_DIR/scrub1.json"
grep -q '"merkle_root"' "$HEAL_DIR/scrub1.json" || {
  echo "self-heal drill: scrub --json lacks merkle_root fields" >&2
  exit 1
}
# A second pass must come back fully clean: the repair stuck, nothing
# is corrupt or quarantined anywhere.
"$CLI" --topology "$HEAL_PEERS" scrub --json > "$HEAL_DIR/scrub2.json"
if grep -Eq '"atoms_(corrupt|quarantined)": [1-9]' "$HEAL_DIR/scrub2.json"; then
  echo "self-heal drill: corruption survived the scrub/repair pass" >&2
  exit 1
fi
kill "${HEAL_PIDS[@]}" 2>/dev/null || true
wait 2>/dev/null || true
trap - EXIT
echo "self-heal drill: ok ($HEAL_JSON)"

# Wall-clock benchmark smoke (perfbench, its own RelWithDebInfo build in
# .bench_build/): every workload on a 32^3 grid, traced and untraced.
# Its answer checks gate the change: buffered, streamed and uncached
# digests must agree on all three workloads, and it exits nonzero on any
# failed op or missing metric.
(cd "$ROOT" && python3 perfbench/run.py --smoke)

# Fault-injection (chaos) drills on the faults build: stalled shards,
# mid-frame truncation, breaker-tripping flaps, mid-stream client
# disconnects, torn chunk frames. They and the TSan pass (which runs the
# chaos tests too) come last, so a failure here cannot keep the drills
# and the benchmark smoke above from running.
ctest --test-dir "$FAULTS_DIR" -L chaos --output-on-failure --timeout 180

# Race-check the failover path: the replica-group health tracking and
# re-sync run concurrently with scatter-gathered sub-queries, so the
# replication tests get a dedicated ThreadSanitizer build. Faults stay on
# here so the chaos drills race-check cancellation and breaker state too.
# The streaming/admission suites ride along: chunked emits, governor
# accounting and shed-vs-admit all cross threads. So do distributed
# FoF (its threshold answer joins from concurrent sub-queries) and the
# tenant fairness drill (governor buckets hit from many workers).
# The membership/WAL/elasticity suites join them: rebalance cutovers
# race in-flight scatter-gather queries by design. So do the routed-view
# reads: a node replaces its channel to a joined shard that moved port
# while halo fetches may still run on the old one.
# The scrub/self-heal suites too: the background scrubber and the
# replica group's read-repair worker run concurrently with live reads.
# So do the node cache and its MVCC tables: concurrent inserts and
# lookups share the versioned tables and the cache's name table.
# And the two caches every concurrent query shares: the mediator's
# result cache (hit from many server workers at once) and the catalog
# that resolves each sub-query and builds its differentiators.
if [ "$SANITIZE" != "thread" ]; then
  TSAN_DIR="$ROOT/build-tsan"
  cmake -B "$TSAN_DIR" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTURBDB_SANITIZE=thread \
    -DTURBDB_FAULTS=ON \
    -DTURBDB_BUILD_BENCHMARKS=OFF -DTURBDB_BUILD_EXAMPLES=OFF
  cmake --build "$TSAN_DIR" -j "$JOBS"
  ctest --test-dir "$TSAN_DIR" \
    -R "ReplicationTest|ChaosTest|AdmissionControlTest|StreamedThreshold|FofClusterTest|TenantFairnessTest|Membership|WalTest|ElasticityTest|RoutedViewTest|ScrubTest|SelfHealTest|SemanticCacheTest|TxnTest|MediatorCache|CatalogTest" \
    --output-on-failure --timeout 300
fi
