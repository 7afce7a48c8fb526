#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload alerts --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and trace files stay under
# $CARGO_TARGET_DIR (default .bench_build) at the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
out="$(cd "$out" && pwd)"
(
  cd perfbench
  env GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
    HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
    GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
    go build -o "$out/perfbench" .
)
exec "$out/perfbench" --trace-dir "$out" "$@"
