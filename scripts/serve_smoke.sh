#!/usr/bin/env bash
# Serving-layer smoke gate: start the xseq_serve daemon on a loopback
# ephemeral port with the observability plane on (Prometheus scrape port,
# structured access log), drive it with the real client binary (ping, a
# query whose answer size is known, a query with --explain, the metrics
# dump, a query traced with --trace_out, a raw HTTP scrape of /metrics),
# hot-swap the serving generation
# under live query load (xseq_client reload + SIGHUP), check that a second
# daemon refuses to start over the live port file and that a reload of a
# bogus image leaves the old generation serving, then SIGTERM it and
# assert the graceful-drain message appeared, the access log captured the
# traffic, and the exit status is 0. A second, dynamic daemon takes wire
# mutations, and its stats must count each query once in xseq.query.count
# as in xseq.shard.queries. This is the end-to-end path CI
# exercises outside of ctest: real processes, real TCP, real HTTP, real
# signals, real on-disk images.
#
#   scripts/serve_smoke.sh [--build-dir=DIR]

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="build"
for arg in "$@"; do
  case "$arg" in
    --build-dir=*) BUILD_DIR="${arg#*=}" ;;
    *)
      echo "usage: $0 [--build-dir=DIR]" >&2
      exit 2
      ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 2)"
if [[ ! -d "$BUILD_DIR" ]]; then
  cmake -B "$BUILD_DIR" -S . >/dev/null
fi
cmake --build "$BUILD_DIR" -j "$JOBS" \
  --target example_xseq_serve example_xseq_client

SERVE="./$BUILD_DIR/examples/example_xseq_serve"
CLIENT="./$BUILD_DIR/examples/example_xseq_client"

PORT_FILE="$(mktemp -u /tmp/xseq_serve_port.XXXXXX)"
PROM_PORT_FILE="$(mktemp -u /tmp/xseq_prom_port.XXXXXX)"
ACCESS_LOG="$(mktemp -u /tmp/xseq_access_log.XXXXXX)"
TRACE_OUT="$(mktemp -u /tmp/xseq_trace.XXXXXX)"
LOG="$(mktemp /tmp/xseq_serve_log.XXXXXX)"
IMG_DIR="$(mktemp -d /tmp/xseq_serve_img.XXXXXX)"
MUT_PORT_FILE="$(mktemp -u /tmp/xseq_mut_port.XXXXXX)"
MUT_LOG="$(mktemp /tmp/xseq_mut_log.XXXXXX)"
SERVE_PID=""
MUT_PID=""
cleanup() {
  [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID" 2>/dev/null || true
  [[ -n "$MUT_PID" ]] && kill -9 "$MUT_PID" 2>/dev/null || true
  rm -f "$PORT_FILE" "$PROM_PORT_FILE" "$ACCESS_LOG" "$ACCESS_LOG.1" "$LOG"
  rm -f "$TRACE_OUT"
  rm -f "$MUT_PORT_FILE" "$MUT_LOG"
  rm -rf "$IMG_DIR"
}
trap cleanup EXIT

# Two on-disk generation images for the hot-swap leg: same schema,
# different sizes, so a swap is observable but both answer the workload.
"$SERVE" --gen=xmark --n=2000 --shards=3 --save="$IMG_DIR/gen_a" >/dev/null
"$SERVE" --gen=xmark --n=1500 --seed=7 --shards=3 --save="$IMG_DIR/gen_b" \
  >/dev/null

"$SERVE" --sharded="$IMG_DIR/gen_a" --workers=2 \
  --canary='/site//person/name' \
  --prom_port=0 --prom_port_file="$PROM_PORT_FILE" \
  --access_log="$ACCESS_LOG" --log_sample=1 \
  --port_file="$PORT_FILE" >"$LOG" 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 150); do
  [[ -s "$PORT_FILE" ]] && break
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "serve_smoke.sh: daemon died during startup" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.1
done
[[ -s "$PORT_FILE" ]] || { echo "serve_smoke.sh: no port file" >&2; exit 1; }
# Line 1 is the port; line 2 is the daemon's pid (for liveness checks).
PORT="$(head -n1 "$PORT_FILE")"
FILE_PID="$(sed -n 2p "$PORT_FILE")"
[[ "$FILE_PID" == "$SERVE_PID" ]] || {
  echo "serve_smoke.sh: port file pid $FILE_PID != daemon pid $SERVE_PID" >&2
  exit 1
}
echo "serve_smoke.sh: daemon up on port $PORT (pid $FILE_PID)"

# A second daemon pointed at the same port file must refuse to start while
# the first is alive — double-start protection.
if "$SERVE" --sharded="$IMG_DIR/gen_b" --port_file="$PORT_FILE" \
    >/tmp/xseq_second_daemon.log 2>&1; then
  echo "serve_smoke.sh: second daemon started over a live port file" >&2
  exit 1
fi
grep -q 'refusing to start' /tmp/xseq_second_daemon.log || {
  echo "serve_smoke.sh: double-start refusal message missing" >&2
  cat /tmp/xseq_second_daemon.log >&2
  exit 1
}
rm -f /tmp/xseq_second_daemon.log
echo "serve_smoke.sh: double-start over live port file refused"

"$CLIENT" ping --port="$PORT"
QUERY_OUT="$("$CLIENT" query --port="$PORT" --q='/site//person/name')"
echo "$QUERY_OUT"
echo "$QUERY_OUT" | grep -q 'document(s)' \
  || { echo "serve_smoke.sh: unexpected query output" >&2; exit 1; }
# The answer must be non-empty: every XMark record has /site/people/person/name.
echo "$QUERY_OUT" | grep -q '^0 document' \
  && { echo "serve_smoke.sh: query returned no documents" >&2; exit 1; }

# The stats op returns the server's metrics registry: the serve counters
# must be present and the request counter non-zero by now.
STATS="$("$CLIENT" stats --port="$PORT")"
echo "$STATS" | grep -q 'xseq.serve.requests' \
  || { echo "serve_smoke.sh: stats dump missing serve counters" >&2; exit 1; }
echo "$STATS" | grep -q '"xseq.serve.requests":0' \
  && { echo "serve_smoke.sh: serve request counter stuck at zero" >&2; exit 1; }

# --- Observability plane -----------------------------------------------------
# query --explain returns the planner's account, including the per-shard
# fan-out of the 3-shard image. Use a query nothing else in this script
# issues: a repeat would hit the result cache, legitimately skipping
# execution — and the shard breakdown with it.
EXPLAIN_OUT="$("$CLIENT" query --port="$PORT" --q='/site//person' \
  --explain)"
echo "$EXPLAIN_OUT" | grep -q 'sequence(s)' \
  || { echo "serve_smoke.sh: --explain missing plan summary" >&2; exit 1; }
echo "$EXPLAIN_OUT" | grep -q 'shard 2:' \
  || { echo "serve_smoke.sh: --explain missing shard breakdown" >&2; exit 1; }
echo "serve_smoke.sh: query --explain ok"

# query --trace_out writes one stitched Chrome trace: the client's
# client_query root and rpc span with the server's serve tree grafted
# under it, down to one shard_probe per shard. Again a text no other leg
# sends, so the query misses the result cache and probes the shards.
"$CLIENT" query --port="$PORT" --q='/site//person/*/age'   --trace_out="$TRACE_OUT" | grep -q '^trace [1-9]'   || { echo "serve_smoke.sh: query --trace_out printed no trace id" >&2
       exit 1; }
for span in client_query rpc serve shard_probe; do
  grep -q "\"name\":\"$span\"" "$TRACE_OUT" || {
    echo "serve_smoke.sh: --trace_out trace has no $span span" >&2
    cat "$TRACE_OUT" >&2
    exit 1
  }
done
echo "serve_smoke.sh: query --trace_out ok"

# The metrics op returns the Prometheus text exposition over the wire.
METRICS_OUT="$("$CLIENT" metrics --port="$PORT")"
echo "$METRICS_OUT" | grep -q '^xseq_serve_requests ' \
  || { echo "serve_smoke.sh: metrics op missing serve series" >&2; exit 1; }

# The scrape endpoint serves the same exposition over plain HTTP; assert
# the serve series are present with non-zero requests. bash's /dev/tcp
# keeps the script curl-free.
[[ -s "$PROM_PORT_FILE" ]] \
  || { echo "serve_smoke.sh: no scrape port file" >&2; exit 1; }
PROM_PORT="$(head -n1 "$PROM_PORT_FILE")"
SCRAPE="$(exec 3<>"/dev/tcp/127.0.0.1/$PROM_PORT" \
  && printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3 && cat <&3)"
echo "$SCRAPE" | grep -q '200 OK' \
  || { echo "serve_smoke.sh: scrape did not return 200" >&2; exit 1; }
echo "$SCRAPE" | grep -q '# TYPE xseq_serve_requests counter' \
  || { echo "serve_smoke.sh: scrape missing xseq_serve_* series" >&2; exit 1; }
echo "$SCRAPE" | grep -Eq '^xseq_serve_requests [1-9]' \
  || { echo "serve_smoke.sh: scraped request counter stuck at zero" >&2; exit 1; }
echo "serve_smoke.sh: prometheus scrape on port $PROM_PORT ok"

# An over-the-wire parse error must not kill the daemon.
"$CLIENT" query --port="$PORT" --q='][' && {
  echo "serve_smoke.sh: malformed query unexpectedly succeeded" >&2
  exit 1
}
"$CLIENT" ping --port="$PORT"

# --- Hot swap under live load -----------------------------------------------
# Queries hammer the daemon while the serving generation is swapped to
# image B and back; every one of them must succeed — the RCU swap promises
# zero dropped or failed requests.
LOAD_LOG="$(mktemp /tmp/xseq_swap_load.XXXXXX)"
(
  for _ in $(seq 1 40); do
    "$CLIENT" query --port="$PORT" --q='/site//person/name' \
      >>"$LOAD_LOG" 2>&1 || { echo "LOAD_FAILED" >>"$LOAD_LOG"; exit 1; }
  done
) &
LOAD_PID=$!
"$CLIENT" reload --port="$PORT" --path="$IMG_DIR/gen_b" \
  | grep -q 'reloaded, generation' \
  || { echo "serve_smoke.sh: reload to gen_b failed" >&2; exit 1; }
# Empty path re-reads the image the daemon currently serves (gen_b).
"$CLIENT" reload --port="$PORT" | grep -q 'reloaded, generation' \
  || { echo "serve_smoke.sh: re-read reload failed" >&2; exit 1; }
wait "$LOAD_PID" || {
  echo "serve_smoke.sh: a query failed during the hot swap" >&2
  tail -5 "$LOAD_LOG" >&2
  exit 1
}
grep -q 'LOAD_FAILED' "$LOAD_LOG" && {
  echo "serve_smoke.sh: a query failed during the hot swap" >&2
  exit 1
}
rm -f "$LOAD_LOG"
echo "serve_smoke.sh: hot swap under load ok (gen_a -> gen_b -> re-read)"

# A reload of a nonexistent image must fail the RPC, leave the daemon
# serving the old generation, and keep the connection usable.
"$CLIENT" reload --port="$PORT" --path="$IMG_DIR/nonexistent" && {
  echo "serve_smoke.sh: reload of a bogus image unexpectedly succeeded" >&2
  exit 1
}
"$CLIENT" ping --port="$PORT"
"$CLIENT" query --port="$PORT" --q='/site//person/name' \
  | grep -q 'document(s)' \
  || { echo "serve_smoke.sh: daemon unhealthy after failed reload" >&2; exit 1; }
echo "serve_smoke.sh: failed reload rolled back cleanly"

# SIGHUP re-reads the current image — the operator's no-client path.
kill -HUP "$SERVE_PID"
for _ in $(seq 1 50); do
  grep -q 'reloaded' "$LOG" && break
  sleep 0.1
done
grep -q 'reloaded' "$LOG" || {
  echo "serve_smoke.sh: no reload message after SIGHUP" >&2
  cat "$LOG" >&2
  exit 1
}
"$CLIENT" ping --port="$PORT"
echo "serve_smoke.sh: SIGHUP reload ok"

kill -TERM "$SERVE_PID"
RC=0
wait "$SERVE_PID" || RC=$?
SERVE_PID=""
if [[ "$RC" -ne 0 ]]; then
  echo "serve_smoke.sh: daemon exited $RC after SIGTERM" >&2
  cat "$LOG" >&2
  exit 1
fi
grep -q 'drained' "$LOG" || {
  echo "serve_smoke.sh: no graceful-drain message in daemon log" >&2
  cat "$LOG" >&2
  exit 1
}

# The access log captured the served traffic: JSON lines with latencies
# for the OK queries and an "error" record for the malformed one.
[[ -s "$ACCESS_LOG" ]] \
  || { echo "serve_smoke.sh: access log is empty" >&2; exit 1; }
grep -q '"op":"query"' "$ACCESS_LOG" \
  || { echo "serve_smoke.sh: access log has no query records" >&2; exit 1; }
grep -q '"latency_us":' "$ACCESS_LOG" \
  || { echo "serve_smoke.sh: access log records lack latencies" >&2; exit 1; }
grep -q '"reason":"error"' "$ACCESS_LOG" \
  || { echo "serve_smoke.sh: parse-error request missing from log" >&2; exit 1; }
echo "serve_smoke.sh: access log captured $(wc -l <"$ACCESS_LOG") records"

# --- Mutations over the wire (dynamic backend) -------------------------------
# A second daemon with a mutable xmark collection: delete a doc out of a
# range-predicate answer, update another doc into an answer that was empty,
# compact, and check every answer tracks the mutations — over real TCP,
# through the live result cache.
"$SERVE" --gen=xmark --n=400 --shards=2 --dynamic \
  --port_file="$MUT_PORT_FILE" >"$MUT_LOG" 2>&1 &
MUT_PID=$!
for _ in $(seq 1 150); do
  [[ -s "$MUT_PORT_FILE" ]] && break
  if ! kill -0 "$MUT_PID" 2>/dev/null; then
    echo "serve_smoke.sh: mutation daemon died during startup" >&2
    cat "$MUT_LOG" >&2
    exit 1
  fi
  sleep 0.1
done
[[ -s "$MUT_PORT_FILE" ]] \
  || { echo "serve_smoke.sh: no mutation daemon port file" >&2; exit 1; }
MUT_PORT="$(head -n1 "$MUT_PORT_FILE")"

RANGE_Q='//age[. >= 40]'
BEFORE_OUT="$("$CLIENT" query --port="$MUT_PORT" --q="$RANGE_Q" --verbose)"
BEFORE_N="$(echo "$BEFORE_OUT" | awk 'NR==1{print $1}')"
[[ "$BEFORE_N" -gt 0 ]] || {
  echo "serve_smoke.sh: range query found no documents" >&2
  exit 1
}
VICTIM="$(echo "$BEFORE_OUT" | awk '/^  doc /{print $2; exit}')"
"$CLIENT" delete --port="$MUT_PORT" --id="$VICTIM" \
  | grep -q 'deleted, generation' \
  || { echo "serve_smoke.sh: delete RPC failed" >&2; exit 1; }
AFTER_OUT="$("$CLIENT" query --port="$MUT_PORT" --q="$RANGE_Q" --verbose)"
AFTER_N="$(echo "$AFTER_OUT" | awk 'NR==1{print $1}')"
[[ "$AFTER_N" -eq $((BEFORE_N - 1)) ]] || {
  echo "serve_smoke.sh: range answer was $BEFORE_N docs, still $AFTER_N" \
    "after deleting one of them" >&2
  exit 1
}
echo "$AFTER_OUT" | grep -qx "  doc $VICTIM" && {
  echo "serve_smoke.sh: deleted doc $VICTIM still served" >&2
  exit 1
}
echo "serve_smoke.sh: wire delete removed doc $VICTIM from the range answer"

# No generated age reaches 90; the updated doc must become the sole answer.
"$CLIENT" query --port="$MUT_PORT" --q='//age[. >= 90]' \
  | grep -q '^0 document' \
  || { echo "serve_smoke.sh: expected no docs with age >= 90" >&2; exit 1; }
# The update also carries a <name> text no generated record has. It is
# first interned when the update is parsed, after the shard's segments
# sealed; they share that vocabulary, so they resolve the text too but hold
# no path for it, and only the updated doc may answer it.
LATE_Q="//person/name[.='late-literal-smoke']"
late_answer_is() {
  local out
  out="$("$CLIENT" query --port="$MUT_PORT" --q="$LATE_Q" --verbose)"
  [[ "$(echo "$out" | awk 'NR==1{print $1}')" == "$1" ]] || return 1
  [[ "$1" == 0 ]] || echo "$out" | grep -qx "  doc $2"
}
late_answer_is 0 \
  || { echo "serve_smoke.sh: late literal answered before the update" >&2
       exit 1; }
TARGET="$(echo "$AFTER_OUT" | awk '/^  doc /{print $2; exit}')"
"$CLIENT" update --port="$MUT_PORT" --id="$TARGET" \
  --xml='<person><name>late-literal-smoke</name><profile><age>99</age></profile></person>' \
  | grep -q 'updated, generation' \
  || { echo "serve_smoke.sh: update RPC failed" >&2; exit 1; }
late_answer_is 1 "$TARGET" \
  || { echo "serve_smoke.sh: late literal must answer exactly doc" \
         "$TARGET after the update" >&2; exit 1; }
UPDATED_OUT="$("$CLIENT" query --port="$MUT_PORT" --q='//age[. >= 90]' \
  --verbose)"
echo "$UPDATED_OUT" | grep -qx "  doc $TARGET" || {
  echo "serve_smoke.sh: updated doc $TARGET missing from range answer" >&2
  echo "$UPDATED_OUT" >&2
  exit 1
}
echo "serve_smoke.sh: wire update moved doc $TARGET into the range answer" \
  "and made it the only answer to a text interned after sealing"

# Compaction purges the tombstones; every answer must be unchanged by it.
"$CLIENT" compact --port="$MUT_PORT" | grep -q 'compacted, generation' \
  || { echo "serve_smoke.sh: compact RPC failed" >&2; exit 1; }
POST_OUT="$("$CLIENT" query --port="$MUT_PORT" --q="$RANGE_Q" --verbose)"
POST_N="$(echo "$POST_OUT" | awk 'NR==1{print $1}')"
[[ "$POST_N" -eq "$AFTER_N" ]] || {
  echo "serve_smoke.sh: compaction changed the range answer" \
    "($AFTER_N -> $POST_N docs)" >&2
  exit 1
}
echo "$POST_OUT" | grep -qx "  doc $VICTIM" && {
  echo "serve_smoke.sh: deleted doc $VICTIM resurfaced after compaction" >&2
  exit 1
}
"$CLIENT" query --port="$MUT_PORT" --q='//age[. >= 90]' \
  | grep -q '^1 document' \
  || { echo "serve_smoke.sh: updated doc lost after compaction" >&2; exit 1; }
late_answer_is 1 "$TARGET" \
  || { echo "serve_smoke.sh: late literal must answer exactly doc" \
         "$TARGET after compaction" >&2; exit 1; }
echo "serve_smoke.sh: compaction preserved every answer"

# Each backend query records one xseq.query sample, and the shard layer
# counts it once: the two counts an operator reads must agree. Only this
# daemon is checked: the first one received a malformed query, which
# counts in xseq.shard.queries but records no sample (none is recorded
# before a successful parse).
MUT_STATS="$("$CLIENT" stats --port="$MUT_PORT")"
counter() {
  echo "$MUT_STATS" | grep -o "\"$1\":[0-9]*" | head -n1 | cut -d: -f2
}
QUERY_COUNT="$(counter xseq.query.count)"
SHARD_QUERIES="$(counter xseq.shard.queries)"
[[ -n "$QUERY_COUNT" && "$QUERY_COUNT" -gt 0 \
   && "$QUERY_COUNT" == "$SHARD_QUERIES" ]] || {
  echo "serve_smoke.sh: dynamic daemon reads xseq.query.count" \
    "'$QUERY_COUNT' but xseq.shard.queries '$SHARD_QUERIES'" >&2
  exit 1
}
echo "serve_smoke.sh: dynamic daemon counted $QUERY_COUNT queries once each"

kill -TERM "$MUT_PID"
RC=0
wait "$MUT_PID" || RC=$?
MUT_PID=""
if [[ "$RC" -ne 0 ]]; then
  echo "serve_smoke.sh: mutation daemon exited $RC after SIGTERM" >&2
  cat "$MUT_LOG" >&2
  exit 1
fi

echo "serve_smoke.sh: ok (ping/query/--explain/--trace_out/stats +" \
  "metrics op + prometheus scrape + access log + double-start refusal +" \
  "hot swap under load + failed-reload rollback + SIGHUP + SIGTERM drain +" \
  "wire delete/update/compact against the dynamic backend + one query" \
  "sample per query)"
