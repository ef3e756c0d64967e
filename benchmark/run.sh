#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds sss-server and the benchmark
# driver from source into .bench_build/ at the checkout root (build cache and
# temp files included, so the build writes nothing outside the checkout), then
# runs the driver from the root. Build time is outside every measured clock.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/sss-server" ./cmd/sss-server
go -C benchmark build -o "$build/sss-benchmark" .
exec "$build/sss-benchmark" "$@"
