#!/usr/bin/env bash
# Benchmark smoke gate: runs the micro_match counter workloads (fig15
# identical-siblings, fig16 query lengths, table7 XMark, Q1 texts narrowed
# by record literals) and fails if the query engine regressed against the
# checked-in baseline —
# `link_entries_read` more than --guard (default 10) percent above
# bench/BENCH_match.baseline.json, or any drift at all in
# `result_docs`/`terminals` (those must stay bit-identical).
#
#   scripts/bench_smoke.sh                  # build + run + guard
#   scripts/bench_smoke.sh --build-dir=build-opt
#   scripts/bench_smoke.sh --guard=5        # tighter regression budget
#
# Refreshing the baseline after an intentional engine change:
#   ./build/bench/micro_match --json=bench/BENCH_match.baseline.json
# (bench/BENCH_match.seed.json is the pre-optimization snapshot and is
# never regenerated — it documents the starting point.)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="build"
GUARD_PCT=10
for arg in "$@"; do
  case "$arg" in
    --build-dir=*) BUILD_DIR="${arg#*=}" ;;
    --guard=*) GUARD_PCT="${arg#*=}" ;;
    *)
      echo "usage: $0 [--build-dir=DIR] [--guard=PCT]" >&2
      exit 2
      ;;
  esac
done

BASELINE="bench/BENCH_match.baseline.json"
if [[ ! -f "$BASELINE" ]]; then
  echo "bench_smoke.sh: missing $BASELINE" >&2
  exit 2
fi

JOBS="$(nproc 2>/dev/null || echo 2)"
if [[ ! -d "$BUILD_DIR" ]]; then
  cmake -B "$BUILD_DIR" -S . >/dev/null
fi
cmake --build "$BUILD_DIR" -j "$JOBS" --target micro_match

OUT="$(mktemp /tmp/BENCH_match.XXXXXX.json)"
OBS_OUT="$(mktemp /tmp/BENCH_obs.XXXXXX.json)"
SERVE_OUT="$(mktemp /tmp/BENCH_serve.XXXXXX.json)"
PLAN_OUT="$(mktemp /tmp/BENCH_plan.XXXXXX.json)"
SWAP_OUT="$(mktemp /tmp/BENCH_swap.XXXXXX.json)"
COMPRESS_OUT="$(mktemp /tmp/BENCH_compress.XXXXXX.json)"
PAGED_OUT="$(mktemp /tmp/BENCH_paged.XXXXXX.json)"
VINDEX_OUT="$(mktemp /tmp/BENCH_vindex.XXXXXX.json)"
trap 'rm -f "$OUT" "$OBS_OUT" "$SERVE_OUT" "$PLAN_OUT" "$SWAP_OUT" \
  "$COMPRESS_OUT" "$PAGED_OUT" "$VINDEX_OUT"' EXIT
"./$BUILD_DIR/bench/micro_match" \
  --json="$OUT" --baseline="$BASELINE" --guard_pct="$GUARD_PCT"

# Observability overhead gate: metrics enabled (tracing off) must stay
# within OBS_GUARD_PCT (default 2) percent of the metrics-off thread CPU
# time on the fig15 workload — the same run that produced
# bench/BENCH_obs.json. Each query runs under every configuration back to
# back, so a busy host slows them alike. Full-size corpus: with fewer docs
# a rep is a few ms and timer noise swamps the budget. 15 reps (vs the
# binary's default 9): the score is the median of the per-rep ratios.
cmake --build "$BUILD_DIR" -j "$JOBS" --target micro_obs
"./$BUILD_DIR/bench/micro_obs" \
  --json="$OBS_OUT" --reps="${OBS_REPS:-15}" \
  --max_overhead_pct="${OBS_GUARD_PCT:-2}"

# Serving-layer harness: a small closed-loop run over loopback TCP must
# produce a BENCH_serve.json with every schema field the dashboards read.
# Latency numbers are host-dependent, so only the schema (and a non-zero
# throughput) is gated here.
cmake --build "$BUILD_DIR" -j "$JOBS" --target micro_serve
"./$BUILD_DIR/bench/micro_serve" \
  --n=1500 --clients=2 --ops=15 --out="$SERVE_OUT"
for key in throughput_qps p50_us p99_us shed shed_rate; do
  grep -q "\"$key\":" "$SERVE_OUT" || {
    echo "bench_smoke.sh: BENCH_serve.json is missing \"$key\"" >&2
    cat "$SERVE_OUT" >&2
    exit 1
  }
done
grep -q '"throughput_qps":0\.0' "$SERVE_OUT" && {
  echo "bench_smoke.sh: serve harness reported zero throughput" >&2
  exit 1
}

# Planner harness: the warm (plan-cache hit) compile path must be at least
# 5x faster than a cold compile, and the warm phase must actually hit the
# cache (>= 50% of lookups). micro_plan itself enforces both gates (exits
# nonzero on violation); the schema of every dashboard field is checked
# here.
cmake --build "$BUILD_DIR" -j "$JOBS" --target micro_plan
"./$BUILD_DIR/bench/micro_plan" \
  --n=800 --rounds=10 --min_warm_speedup=5 --min_hit_rate=0.5 \
  --out="$PLAN_OUT"
for key in cold_compile_us warm_compile_us warm_speedup plan_hit_rate \
           result_hit_us qps_nocache qps_cache qps_speedup; do
  grep -q "\"$key\":" "$PLAN_OUT" || {
    echo "bench_smoke.sh: BENCH_plan.json is missing \"$key\"" >&2
    cat "$PLAN_OUT" >&2
    exit 1
  }
done

# Hot-swap harness: queries racing continuous generation reloads. The
# binary itself asserts dropped == 0 and that every reload of a valid
# image landed; here the schema is checked and the p99-across-swaps gate
# applied — within SWAP_GUARD_X (default 2) x steady-state p99. Latency
# ratios on a noisy shared host can wobble, so the factor is
# env-overridable, but the dropped-requests gate is absolute.
cmake --build "$BUILD_DIR" -j "$JOBS" --target micro_swap
"./$BUILD_DIR/bench/micro_swap" \
  --n=1000 --readers=3 --ops=300 --out="$SWAP_OUT"
for key in steady_p99_us swap_p99_us p99_ratio swaps requests dropped qps; do
  grep -q "\"$key\":" "$SWAP_OUT" || {
    echo "bench_smoke.sh: BENCH_swap.json is missing \"$key\"" >&2
    cat "$SWAP_OUT" >&2
    exit 1
  }
done
grep -q '"dropped":0[,}]' "$SWAP_OUT" || {
  echo "bench_smoke.sh: hot swap dropped requests" >&2
  cat "$SWAP_OUT" >&2
  exit 1
}
RATIO="$(sed -n 's/.*"p99_ratio":\([0-9.]*\).*/\1/p' "$SWAP_OUT")"
SWAP_GUARD_X="${SWAP_GUARD_X:-2}"
awk -v r="$RATIO" -v g="$SWAP_GUARD_X" 'BEGIN { exit !(r <= g) }' || {
  echo "bench_smoke.sh: p99 across swaps is ${RATIO}x steady state" \
    "(budget ${SWAP_GUARD_X}x)" >&2
  cat "$SWAP_OUT" >&2
  exit 1
}

# Link-compression gates: the packed link region summed over the
# fig14/table5 corpora must be at least COMPRESS_SIZE_PCT (default 30)
# percent smaller than the flat 12-byte-entry layout, and the compressed
# engine's thread CPU time (median of per-rep compressed/flat ratio pairs)
# must stay within COMPRESS_CPU_PCT (default 10) percent of the flat
# baseline on the fig15/table7 query mixes. micro_compress enforces both
# and exits nonzero on violation.
cmake --build "$BUILD_DIR" -j "$JOBS" --target micro_compress
"./$BUILD_DIR/bench/micro_compress" \
  --reps=5 \
  --min_size_reduction_pct="${COMPRESS_SIZE_PCT:-30}" \
  --max_cpu_regression_pct="${COMPRESS_CPU_PCT:-10}" \
  --out="$COMPRESS_OUT"

# Paged-layout density gate: the compressed link region must hold strictly
# more entries per page than the old flat pair+cover layout (341.3/page);
# micro_paged --json enforces the gate and reports the warm pool hit rate.
cmake --build "$BUILD_DIR" -j "$JOBS" --target micro_paged
"./$BUILD_DIR/bench/micro_paged" --json="$PAGED_OUT"
for key in entries_per_page warm_pool_hit_rate; do
  grep -q "\"$key\":" "$PAGED_OUT" || {
    echo "bench_smoke.sh: BENCH_paged.json is missing \"$key\"" >&2
    cat "$PAGED_OUT" >&2
    exit 1
  }
done

# Value-index gate: a range predicate at ~1% selectivity answered through
# the ordered value index must beat the brute per-document scan (structural
# oracle + comparison check) by at least VINDEX_GUARD_X (default 10);
# micro_vindex enforces the gate, cross-checks both answers doc for doc,
# and exits nonzero on violation.
cmake --build "$BUILD_DIR" -j "$JOBS" --target micro_vindex
"./$BUILD_DIR/bench/micro_vindex" \
  --min_speedup="${VINDEX_GUARD_X:-10}" \
  --out="$VINDEX_OUT"
for key in speedup_low speedup_mid speedup_high mutations_per_sec; do
  grep -q "\"$key\":" "$VINDEX_OUT" || {
    echo "bench_smoke.sh: BENCH_vindex.json is missing \"$key\"" >&2
    cat "$VINDEX_OUT" >&2
    exit 1
  }
done

echo "bench_smoke.sh: ok (counters within ${GUARD_PCT}% of $BASELINE," \
  "serve schema complete, plan cache gates passed," \
  "swap p99 ${RATIO}x steady / 0 dropped," \
  "compression size/CPU gates passed, paged density gate passed," \
  "value-index speedup gate passed)"
