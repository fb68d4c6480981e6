#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run it from the root of a checkout: bash benchmark/run.sh --workload ...
#
# Everything the Go toolchain writes — build cache, temporary files, the
# binary, its own configuration — goes under .bench_build/ in the checkout,
# and so do the benchmark's generated inputs and result files.
set -euo pipefail

if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $PWD: run it from the root of a checkout" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# With a fresh configuration directory the go command starts a detached
# telemetry child that outlives it. The mode file turns that off, so nothing
# this script starts is left running when it returns.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/rdfframes-benchmark" ./benchmark
exec "$build/rdfframes-benchmark" "$@"
