#!/usr/bin/env bash
# Measures the PR 5 proxy host benchmarks and records them to
# BENCH_PR5.json.
#
# Three layers: the hierarchical timing wheel against time.AfterFunc at
# 100k outstanding timers (internal/simtime), the end-to-end forward path
# through the proxy host at one session (the single-device deployment)
# and at eight (internal/host), and a loadgen run driving 1,000
# concurrent device sessions through one host over real TCP, which must
# complete with zero lost and zero duplicate deliveries.
#
# The script fails (for CI) if:
#   - one-session HostForwardPath allocs/op regress above the PR 5 budget
#     of 25 (PR 2 baseline was 53 before the hand-rolled frame decoder),
#     or
#   - the loadgen run loses or duplicates any delivery.
#
# Environment knobs:
#   BENCH_COUNT     repetitions per benchmark (default 3; median is kept)
#   BENCH_CPU       -cpu value (default 8)
#   BENCH_OUT       output path (default BENCH_PR5.json in the repo root)
#   BENCH_SMOKE=1   quick run for CI: -benchtime 1x for the wall-clock
#                   benchmarks, loadgen shrunk to a smoke volume (still
#                   1,000 sessions — the session count is the point)
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${BENCH_COUNT:-3}"
CPU="${BENCH_CPU:-8}"
OUT="${BENCH_OUT:-BENCH_PR5.json}"
WHEEL_TIME="2s"
FWD_TIME="2s"
LOADGEN_N=20000
LOADGEN_DEVICES=1000
LOADGEN_TOPICS=100
ALLOC_BUDGET=25
if [[ "${BENCH_SMOKE:-0}" == "1" ]]; then
  COUNT=1
  WHEEL_TIME="1000x" # enough iterations that arm/cancel dominates setup
  FWD_TIME="500x"    # enough that per-op allocs reach steady state for the gate
  LOADGEN_N=2000
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo ">> timing wheel vs time.AfterFunc (100k outstanding timers)" >&2
go test ./internal/simtime/ -run '^$' -bench BenchmarkTimerWheel \
  -benchmem -benchtime "$WHEEL_TIME" -count "$COUNT" | tee -a "$tmp/bench.txt" >&2
echo ">> forward path through the proxy host (1 and 8 sessions)" >&2
go test ./internal/host/ -run '^$' -bench BenchmarkHostForwardPath \
  -benchmem -cpu "$CPU" -benchtime "$FWD_TIME" -count "$COUNT" | tee -a "$tmp/bench.txt" >&2
echo ">> loadgen: $LOADGEN_DEVICES sessions, one host" >&2
go run ./cmd/lasthop-loadgen \
  -devices "$LOADGEN_DEVICES" -topics "$LOADGEN_TOPICS" -n "$LOADGEN_N" \
  -publishers 4 -payload 128 -q -out "$tmp/loadgen.json" >&2

# Reduce repeated benchmark lines to per-benchmark medians, emitted as JSON.
awk '
  /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
    gsub(/\//, "_", name)
    ns[name] = ns[name] " " $3
    bytes[name] = $5; allocs[name] = $7; n[name]++
  }
  function median(list,   a, c, i, v, j) {
    c = split(list, a, " ")
    for (i = 2; i <= c; i++) { # insertion sort; c is tiny
      v = a[i] + 0; j = i - 1
      while (j >= 1 && a[j] + 0 > v) { a[j+1] = a[j]; j-- }
      a[j+1] = v
    }
    return a[int((c + 1) / 2)]
  }
  END {
    printf "{"
    first = 1
    for (name in ns) {
      if (!first) printf ","
      first = 0
      printf "\"%s\":{\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s,\"runs\":%d}", \
        name, median(ns[name]), bytes[name], allocs[name], n[name]
    }
    printf "}"
  }
' "$tmp/bench.txt" > "$tmp/measured.json"

# Gates. allocs/op is machine-independent, so it is the CI tripwire; the
# wheel-vs-AfterFunc ratio is reported (it only means something with real
# -benchtime on a quiet machine, not a 1x smoke run).
fwd_allocs="$(sed -n 's/.*"HostForwardPath_sessions=1":{[^}]*"allocs_per_op":\([0-9]*\).*/\1/p' "$tmp/measured.json")"
if [[ -z "$fwd_allocs" || "$fwd_allocs" -gt "$ALLOC_BUDGET" ]]; then
  echo "FAIL: HostForwardPath/sessions=1 allocs/op = ${fwd_allocs:-unparsed}, budget $ALLOC_BUDGET" >&2
  exit 1
fi
wheel_ns="$(sed -n 's/.*"TimerWheel_Wheel":{"ns_per_op":\([0-9.e+]*\).*/\1/p' "$tmp/measured.json")"
after_ns="$(sed -n 's/.*"TimerWheel_AfterFunc":{"ns_per_op":\([0-9.e+]*\).*/\1/p' "$tmp/measured.json")"
ratio="$(awk -v w="$wheel_ns" -v a="$after_ns" 'BEGIN { if (w > 0) printf "%.2f", a / w; else print 0 }')"

expect="$(awk -v n="$LOADGEN_N" -v d="$LOADGEN_DEVICES" -v t="$LOADGEN_TOPICS" \
  'BEGIN { print n / t * (d / t) * t }')"
delivered="$(sed -n 's/.*"delivered": \([0-9]*\).*/\1/p' "$tmp/loadgen.json")"
duplicates="$(sed -n 's/.*"duplicates": \([0-9]*\).*/\1/p' "$tmp/loadgen.json")"
if [[ "$delivered" != "$expect" || "$duplicates" != "0" ]]; then
  echo "FAIL: loadgen delivered=$delivered (want $expect) duplicates=$duplicates (want 0)" >&2
  exit 1
fi

{
  printf '{\n'
  printf '  "benchmark": "PR 5 proxy host",\n'
  printf '  "environment": {\n'
  printf '    "go": "%s",\n' "$(go version | awk '{print $3}')"
  printf '    "os": "%s",\n' "$(uname -s)"
  printf '    "physical_cpus": %s,\n' "$(nproc)"
  printf '    "bench_cpu_flag": %s,\n' "$CPU"
  printf '    "note": "TimerWheel arms and cancels 100k outstanding timers per scheduler; the >=5x wheel-vs-AfterFunc target applies to real -benchtime runs, not BENCH_SMOKE. ForwardPath benchmarks are one end-to-end delivery over real TCP."\n'
  printf '  },\n'
  printf '  "baseline": {\n'
  printf '    "description": "PR 2 tree (encoding/json frame decode, a single-device proxy server per device), measured back-to-back with the PR 5 tree on the same 1-physical-core container",\n'
  printf '    "ProxyForwardPath": {"ns_per_op": 53521, "bytes_per_op": 4630, "allocs_per_op": 53}\n'
  printf '  },\n'
  printf '  "alloc_budget": {"HostForwardPath_sessions=1_allocs_per_op": %s, "measured": %s},\n' "$ALLOC_BUDGET" "$fwd_allocs"
  printf '  "wheel_vs_afterfunc_speedup": %s,\n' "${ratio:-0}"
  printf '  "measured": %s,\n' "$(cat "$tmp/measured.json")"
  printf '  "loadgen_host": %s\n' "$(cat "$tmp/loadgen.json")"
  printf '}\n'
} > "$OUT"

echo "wrote $OUT (HostForwardPath/sessions=1 $fwd_allocs allocs/op, wheel ${ratio}x AfterFunc)" >&2
