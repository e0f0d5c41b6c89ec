#!/usr/bin/env bash
# The command BENCHMARK.json names: build the harness from source inside the
# checkout and run it with the arguments given. Everything the Go toolchain
# writes (build cache, binary) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod in $PWD: the program is not here, nothing to measure" >&2
	exit 1
fi
build="$PWD/.bench_build"
# The go command starts a detached telemetry child the first time it sees a
# config directory; it would outlive this script. Mode "off" in the private
# config directory keeps go from starting it.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local \
	go build -o "$build/smartsouth-bench" ./bench
exec "$build/smartsouth-bench" "$@"
