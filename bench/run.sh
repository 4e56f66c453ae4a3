#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Run from the repository root; BENCHMARK.json's command is
# "bash bench/run.sh". Everything the Go toolchain writes (build cache,
# binary, telemetry) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/home"
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
