#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs
# it, passing every argument through. Run from the repository root:
#
#   bash e2ebench/run.sh --workload join --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, WAL files and traces all stay under
# .bench_build in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --workdir "$out" "$@"
