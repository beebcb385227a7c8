#!/usr/bin/env bash
# Smoke test for `corrsketch serve`: pack a small corpus, boot the
# server in the background, run scripted requests (fresh, cached,
# post-append, post-compact), and assert a clean graceful shutdown on
# SIGTERM (exit code 0). Then reruns the lifecycle in scatter-gather
# mode: `corpus shard` the store, boot 3 workers plus a coordinator,
# and drive fresh / cached / post-append / degraded (killed worker)
# requests before a clean coordinator SIGTERM.
#
# Used by CI (.github/workflows/ci.yml, `serve-smoke` job) and runnable
# locally:  bash scripts/serve_smoke.sh [target/release]
set -euo pipefail

BIN_DIR="${1:-target/release}"
CORRSKETCH="$BIN_DIR/corrsketch"
WORK="$(mktemp -d)"
PORT="${SERVE_SMOKE_PORT:-7351}"
BASE="http://127.0.0.1:$PORT"
SERVER_PID=""
COORD_PID=""
WORKER_PIDS=()

cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  [ -n "$COORD_PID" ] && kill -9 "$COORD_PID" 2>/dev/null || true
  for pid in ${WORKER_PIDS[@]+"${WORKER_PIDS[@]}"}; do
    kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "serve_smoke: FAIL: $*" >&2; exit 1; }

# --- 1. Write a tiny CSV lake and pack it. ------------------------------
mkdir -p "$WORK/lake" "$WORK/more"
{
  echo "day,pickups"
  for i in $(seq 0 199); do echo "d$i,$(( (i * 37) % 100 ))"; done
} > "$WORK/lake/taxi.csv"
{
  echo "day,rain"
  for i in $(seq 0 199); do echo "d$i,$(( 100 - (i * 37) % 100 ))"; done
} > "$WORK/lake/weather.csv"
{
  echo "day,events"
  for i in $(seq 0 199); do echo "d$i,$(( (i * 37) % 100 + 3 ))"; done
} > "$WORK/more/events.csv"

"$CORRSKETCH" corpus pack --dir "$WORK/lake" --out "$WORK/store" \
  --shards 2 --sketch-size 128
"$CORRSKETCH" corpus info --store "$WORK/store" --json true \
  | grep -q '"generation":0' || fail "corpus info --json missing generation"

# --- 2. Boot the server in the background. ------------------------------
"$CORRSKETCH" serve --store "$WORK/store" --port "$PORT" --threads 2 \
  --poll-ms 100 > "$WORK/server.log" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  if curl -sf "$BASE/healthz" > /dev/null 2>&1; then break; fi
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/server.log"; fail "server died during startup"; }
  sleep 0.1
done
curl -sf "$BASE/healthz" | grep -q '"status":"ok"' || fail "healthz not ok"

# --- 3. Fresh query, then cached repeat — byte-identical. ---------------
QUERY="{\"keys\":[$(printf '"d%s",' $(seq 0 198))\"d199\"],\"values\":[$(printf '%s,' $(seq 0 198))199]}"
echo "$QUERY" > "$WORK/query.json"

curl -sf -X POST --data-binary @"$WORK/query.json" "$BASE/query" > "$WORK/r1.json"
grep -q '"generation":0' "$WORK/r1.json" || fail "fresh query not at generation 0"
grep -q '"results":\[{' "$WORK/r1.json" || fail "fresh query returned no results"

curl -sf -X POST --data-binary @"$WORK/query.json" "$BASE/query" > "$WORK/r2.json"
cmp -s "$WORK/r1.json" "$WORK/r2.json" || fail "cached response not byte-identical"
curl -sf "$BASE/stats" | grep -q '"cache_hits":0' && fail "repeat was not a cache hit"

# Confidence-aware re-ranking: a scored request answers with the scorer
# echoed, per-result CI endpoints, and a distinct cache identity.
SCORED="${QUERY%\}},\"scorer\":\"s4\",\"confidence\":0.9}"
echo "$SCORED" > "$WORK/scored.json"
curl -sf -X POST --data-binary @"$WORK/scored.json" "$BASE/query" > "$WORK/r_scored.json"
grep -q '"scorer":"s4"' "$WORK/r_scored.json" || fail "scored query did not echo the scorer"
grep -q '"confidence":0.9' "$WORK/r_scored.json" || fail "scored query did not echo the confidence"
grep -q '"ci_lo":' "$WORK/r_scored.json" || fail "scored query missing CI fields"
cmp -s "$WORK/r1.json" "$WORK/r_scored.json" && fail "scored and default responses must differ"

# --- 3b. Metrics smoke: traced query + a clean Prometheus scrape. -------
TRACED="${QUERY%\}},\"trace\":true}"
echo "$TRACED" > "$WORK/traced.json"
curl -sf -X POST --data-binary @"$WORK/traced.json" "$BASE/query" > "$WORK/r_traced.json"
grep -q '"trace":{' "$WORK/r_traced.json" || fail "traced query carried no trace object"
grep -q '"spans":\[{' "$WORK/r_traced.json" || fail "trace carried no spans"
# Stripping the spliced trace recovers the untraced answer byte-for-byte.
sed 's/,"trace":.*$/}/' "$WORK/r_traced.json" > "$WORK/r_stripped.json"
cmp -s "$WORK/r1.json" "$WORK/r_stripped.json" \
  || fail "traced result payload differs from the untraced one"

curl -sf "$BASE/metrics" > "$WORK/metrics.txt"
grep -q '^# TYPE sketch_requests_total counter$' "$WORK/metrics.txt" \
  || fail "/metrics missing the requests counter family"
grep -q '^sketch_requests_total{endpoint="query"} ' "$WORK/metrics.txt" \
  || fail "/metrics missing the per-endpoint request counter"
grep -q '^# TYPE sketch_query_latency_seconds histogram$' "$WORK/metrics.txt" \
  || fail "/metrics missing the latency histogram family"
grep -q '^sketch_query_latency_seconds_bucket{le="+Inf"} ' "$WORK/metrics.txt" \
  || fail "/metrics latency histogram has no +Inf bucket"
grep -q '^sketch_generation 0$' "$WORK/metrics.txt" \
  || fail "/metrics missing the served generation gauge"
grep -q '^sketch_traced_requests_total 1$' "$WORK/metrics.txt" \
  || fail "/metrics did not count the traced request"

# --- 4. Mutate the corpus under the live server. ------------------------
"$CORRSKETCH" corpus append --store "$WORK/store" --dir "$WORK/more"
for _ in $(seq 1 100); do
  curl -sf "$BASE/healthz" | grep -q '"generation":1' && break
  sleep 0.1
done
curl -sf "$BASE/healthz" | grep -q '"generation":1' || fail "server never saw the append"

curl -sf -X POST --data-binary @"$WORK/query.json" "$BASE/query" > "$WORK/r3.json"
grep -q '"generation":1' "$WORK/r3.json" || fail "post-append answer not at generation 1"
grep -q 'events/day/events' "$WORK/r3.json" || fail "appended column not served"

"$CORRSKETCH" corpus compact --store "$WORK/store"
for _ in $(seq 1 100); do
  curl -sf "$BASE/healthz" | grep -q '"generation":2' && break
  sleep 0.1
done
curl -sf "$BASE/healthz" | grep -q '"generation":2' || fail "server never saw the compact"

curl -sf -X POST --data-binary @"$WORK/query.json" "$BASE/query" > "$WORK/r4.json"
grep -q '"generation":2' "$WORK/r4.json" || fail "post-compact answer not at generation 2"
grep -q 'events/day/events' "$WORK/r4.json" || fail "post-compact results lost the appended column"

curl -sf "$BASE/corpus" | grep -q '"served_generation":2' || fail "corpus endpoint stale"

# --- 5. Graceful shutdown on SIGTERM. -----------------------------------
kill -TERM "$SERVER_PID"
EXIT_CODE=0
wait "$SERVER_PID" || EXIT_CODE=$?
SERVER_PID=""
[ "$EXIT_CODE" -eq 0 ] || { cat "$WORK/server.log"; fail "server exited $EXIT_CODE on SIGTERM"; }
grep -q "graceful shutdown" "$WORK/server.log" || { cat "$WORK/server.log"; fail "no graceful shutdown report"; }

# Nothing must be listening any more.
curl -sf --max-time 2 "$BASE/healthz" > /dev/null 2>&1 && fail "server still listening after SIGTERM"

# --- 6. Scatter-gather: shard the store, boot 3 workers + coordinator. --
"$CORRSKETCH" corpus shard --store "$WORK/store" --out "$WORK/parts" --workers 3
[ -f "$WORK/parts/partition.cskp" ] || fail "corpus shard wrote no partition manifest"

WORKER_ADDRS=""
for i in 0 1 2; do
  WPORT=$((PORT + 1 + i))
  # The coordinator holds pooled keep-alive connections per worker
  # (scatter, report fetch, health poller) and one worker thread serves
  # one connection — give workers headroom so a pinned connection never
  # reads as a dead shard.
  "$CORRSKETCH" serve --store "$WORK/parts/worker-000$i" --port "$WPORT" \
    --threads 4 --poll-ms 100 > "$WORK/worker$i.log" 2>&1 &
  WORKER_PIDS+=("$!")
  WORKER_ADDRS="$WORKER_ADDRS${WORKER_ADDRS:+,}127.0.0.1:$WPORT"
done
for i in 0 1 2; do
  WPORT=$((PORT + 1 + i))
  for _ in $(seq 1 100); do
    curl -sf "http://127.0.0.1:$WPORT/healthz" > /dev/null 2>&1 && break
    sleep 0.1
  done
  curl -sf "http://127.0.0.1:$WPORT/healthz" | grep -q '"status":"ok"' \
    || { cat "$WORK/worker$i.log"; fail "worker $i never became healthy"; }
done

CPORT=$((PORT + 4))
CBASE="http://127.0.0.1:$CPORT"
"$CORRSKETCH" serve --workers "$WORKER_ADDRS" --port "$CPORT" \
  --threads 2 --poll-ms 100 > "$WORK/coordinator.log" 2>&1 &
COORD_PID=$!
for _ in $(seq 1 100); do
  if curl -sf "$CBASE/healthz" > /dev/null 2>&1; then break; fi
  kill -0 "$COORD_PID" 2>/dev/null || { cat "$WORK/coordinator.log"; fail "coordinator died during startup"; }
  sleep 0.1
done
curl -sf "$CBASE/healthz" | grep -q '"status":"ok"' || fail "coordinator healthz not ok"

# --- 7. Fresh scatter-gather answer, then cached repeat. ----------------
curl -sf -X POST --data-binary @"$WORK/query.json" "$CBASE/query" > "$WORK/c1.json"
grep -q '"degraded":\[\]' "$WORK/c1.json" || fail "healthy coordinator answer lists degraded shards"
grep -q '"results":\[{' "$WORK/c1.json" || fail "coordinator returned no results"

curl -sf -X POST --data-binary @"$WORK/query.json" "$CBASE/query" > "$WORK/c2.json"
cmp -s "$WORK/c1.json" "$WORK/c2.json" || fail "cached coordinator response not byte-identical"
curl -sf "$CBASE/stats" | grep -q '"cache_hits":0' && fail "coordinator repeat was not a cache hit"

# --- 8. Append to one worker's store under the live cluster. ------------
mkdir -p "$WORK/extra"
{
  echo "day,humidity"
  for i in $(seq 0 199); do echo "d$i,$(( (i * 37) % 100 + 1 ))"; done
} > "$WORK/extra/humidity.csv"
"$CORRSKETCH" corpus append --store "$WORK/parts/worker-0000" --dir "$WORK/extra"
for _ in $(seq 1 100); do
  curl -sf "$CBASE/healthz" | grep -q '"generation":1' && break
  sleep 0.1
done
curl -sf "$CBASE/healthz" | grep -q '"generation":1' || fail "coordinator never saw the worker append"

curl -sf -X POST --data-binary @"$WORK/query.json" "$CBASE/query" > "$WORK/c3.json"
grep -q 'humidity/day/humidity' "$WORK/c3.json" || fail "appended column not served through the coordinator"
grep -q '"degraded":\[\]' "$WORK/c3.json" || fail "post-append answer lists degraded shards"
cmp -s "$WORK/c1.json" "$WORK/c3.json" && fail "post-append answer must differ from the pre-append one"

# --- 9. Kill a worker: typed degraded partial result, never a hang. -----
kill -9 "${WORKER_PIDS[2]}"
wait "${WORKER_PIDS[2]}" 2>/dev/null || true
for _ in $(seq 1 100); do
  curl -sf "$CBASE/healthz" | grep -q '"status":"degraded"' && break
  sleep 0.1
done
curl -sf "$CBASE/healthz" | grep -q '"status":"degraded"' || fail "coordinator never marked the dead shard"

curl -sf --max-time 10 -X POST --data-binary @"$WORK/scored.json" "$CBASE/query" > "$WORK/c4.json"
grep -q '"degraded":\[{"shard":2' "$WORK/c4.json" || fail "degraded answer does not name the dead shard"
grep -q '"results":' "$WORK/c4.json" || fail "degraded answer carries no results field"

# --- 9b. Coordinator metrics reflect per-shard health under the kill. ---
curl -sf "$CBASE/metrics" > "$WORK/coord_metrics.txt"
grep -q '^sketch_shards 3$' "$WORK/coord_metrics.txt" \
  || fail "coordinator /metrics missing the shard count"
grep -q '^sketch_shard_healthy{shard="2"} 0$' "$WORK/coord_metrics.txt" \
  || fail "killed worker not reflected in sketch_shard_healthy"
grep -q '^sketch_shard_healthy{shard="0"} 1$' "$WORK/coord_metrics.txt" \
  || fail "live worker not healthy in sketch_shard_healthy"
grep -q '^sketch_shard_generation{shard="0"} 1$' "$WORK/coord_metrics.txt" \
  || fail "per-shard generation gauge stale after the append"
DEGRADED=$(grep '^sketch_degraded_responses_total ' "$WORK/coord_metrics.txt" | awk '{print $2}')
[ "${DEGRADED:-0}" -ge 1 ] || fail "degraded response not counted in /metrics"

# --- 10. Clean SIGTERM: coordinator first, then the live workers. -------
kill -TERM "$COORD_PID"
EXIT_CODE=0
wait "$COORD_PID" || EXIT_CODE=$?
COORD_PID=""
[ "$EXIT_CODE" -eq 0 ] || { cat "$WORK/coordinator.log"; fail "coordinator exited $EXIT_CODE on SIGTERM"; }
grep -q "graceful shutdown" "$WORK/coordinator.log" \
  || { cat "$WORK/coordinator.log"; fail "no coordinator graceful shutdown report"; }
curl -sf --max-time 2 "$CBASE/healthz" > /dev/null 2>&1 && fail "coordinator still listening after SIGTERM"

for i in 0 1; do
  kill -TERM "${WORKER_PIDS[$i]}"
  EXIT_CODE=0
  wait "${WORKER_PIDS[$i]}" || EXIT_CODE=$?
  [ "$EXIT_CODE" -eq 0 ] || { cat "$WORK/worker$i.log"; fail "worker $i exited $EXIT_CODE on SIGTERM"; }
done
WORKER_PIDS=()

echo "serve_smoke: OK (single server + sharded cluster: fresh, cached, post-append, post-compact, degraded, SIGTERM all clean)"
