#!/usr/bin/env bash
# Measures the PR 2 hot-path benchmarks and records them to BENCH_PR2.json.
#
# The three benchmarks cover the layers the PR rebuilt: broker publish
# fan-out (internal/pubsub), the framed push write path (internal/wire),
# and the full broker→proxy→device forward path, measured as the
# one-session case of BenchmarkHostForwardPath (internal/host; the
# single-device deployment is a one-session host). A loadgen smoke run
# captures end-to-end delivery rates through real TCP connections.
#
# The "baseline" block embedded below is the same three benchmarks run
# against the pre-PR single-mutex / unbuffered-write tree (the benchmark
# files compile against both versions; the old tree was restored with
# `git stash` and measured back-to-back with the new one on the same
# machine). Re-running this script refreshes only the "measured" block.
#
# Environment knobs:
#   BENCH_COUNT     repetitions per benchmark (default 3; median is kept)
#   BENCH_CPU       -cpu value (default 8)
#   BENCH_OUT       output path (default BENCH_PR2.json in the repo root)
#   BENCH_SMOKE=1   single-iteration run for CI: -benchtime 1x, count 1,
#                   loadgen shrunk to a smoke volume
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${BENCH_COUNT:-3}"
CPU="${BENCH_CPU:-8}"
OUT="${BENCH_OUT:-BENCH_PR2.json}"
FANOUT_TIME="500000x" # fixed iterations: the broker's dedup state grows, so ns/op depends on b.N
WIRE_TIME="2s"
LOADGEN_N=2000
if [[ "${BENCH_SMOKE:-0}" == "1" ]]; then
  COUNT=1
  FANOUT_TIME="1x"
  WIRE_TIME="1x"
  LOADGEN_N=50
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo ">> broker fan-out" >&2
go test ./internal/pubsub/ -run '^$' -bench '^BenchmarkBrokerFanout$' \
  -benchmem -cpu "$CPU" -benchtime "$FANOUT_TIME" -count "$COUNT" | tee -a "$tmp/bench.txt" >&2
echo ">> wire push + one-session forward path" >&2
go test ./internal/wire/ -run '^$' -bench '^BenchmarkWireThroughput$' \
  -benchmem -cpu "$CPU" -benchtime "$WIRE_TIME" -count "$COUNT" | tee -a "$tmp/bench.txt" >&2
go test ./internal/host/ -run '^$' -bench '^BenchmarkHostForwardPath$/^sessions=1$' \
  -benchmem -cpu "$CPU" -benchtime "$WIRE_TIME" -count "$COUNT" | tee -a "$tmp/bench.txt" >&2
echo ">> loadgen smoke" >&2
go run ./cmd/lasthop-loadgen -publishers 4 -devices 4 -n "$LOADGEN_N" -payload 128 -q \
  -out "$tmp/loadgen.json" >&2

# Reduce repeated benchmark lines to per-benchmark medians, emitted as JSON.
awk '
  /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
    gsub(/\//, "_", name)
    ns[name] = ns[name] " " $3
    bytes[name] = $5; allocs[name] = $7; n[name]++
  }
  function median(list,   a, c, i) {
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

{
  printf '{\n'
  printf '  "benchmark": "PR 2 hot-path throughput overhaul",\n'
  printf '  "environment": {\n'
  printf '    "go": "%s",\n' "$(go version | awk '{print $3}')"
  printf '    "os": "%s",\n' "$(uname -s)"
  printf '    "physical_cpus": %s,\n' "$(nproc)"
  printf '    "bench_cpu_flag": %s,\n' "$CPU"
  printf '    "note": "nproc reports the cores actually available; with -cpu %s on fewer physical cores the striping/parallelism win cannot materialize, so ns/op deltas here measure the serial-path reduction only. The >=3x fan-out target applies at 8+ physical cores."\n' "$CPU"
  printf '  },\n'
  printf '  "baseline": {\n'
  printf '    "description": "seed tree (single global broker mutex, unbuffered per-frame writes, encoding/json encode), measured back-to-back with the overhauled tree on the same 1-physical-core container",\n'
  printf '    "BrokerFanout": {"ns_per_op": 1625, "bytes_per_op": 447, "allocs_per_op": 6},\n'
  printf '    "WireThroughput": {"ns_per_op": 6446, "bytes_per_op": 304, "allocs_per_op": 3},\n'
  printf '    "ProxyForwardPath": {"ns_per_op": 55522, "bytes_per_op": 4452, "allocs_per_op": 58}\n'
  printf '  },\n'
  printf '  "measured": %s,\n' "$(cat "$tmp/measured.json")"
  printf '  "loadgen": %s\n' "$(cat "$tmp/loadgen.json")"
  printf '}\n'
} > "$OUT"

echo "wrote $OUT" >&2
