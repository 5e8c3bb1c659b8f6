#!/usr/bin/env bash
# Builds the psd benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload ingest-20k --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# every temporary file stay under .bench_build/ there; the benchmark
# module needs only the repository and the standard library, so the
# build never reaches for the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
