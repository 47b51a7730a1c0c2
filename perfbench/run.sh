#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the
# given arguments (see BENCHMARK.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-frontdoor --seed 1 --seconds 10 --trace 0
#
# Build outputs (the binary, the Go build cache, spill directories and
# span files) stay under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

# Keep the toolchain's caches and temporary files in the checkout too.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
mkdir -p "$GOTMPDIR"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out/perfbench-data" "$@"
