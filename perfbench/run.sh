#!/usr/bin/env bash
# Builds the delivery benchmark from source and runs it with the given
# arguments. Build outputs, the Go build cache, spools and span files stay
# under .bench_build at the repository root (CARGO_TARGET_DIR names it when
# set). In a tree without the lasthop module beside this directory the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/config"
# Keep the toolchain's cache, temporary files and telemetry counters inside
# the tree as well.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
