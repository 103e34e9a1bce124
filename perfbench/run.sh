#!/usr/bin/env bash
# Builds cmd/schedserver and the perfbench program from source, then
# runs perfbench with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload inline-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a treesched checkout. Everything it builds or
# writes stays under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/out"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS= GOTOOLCHAIN=local

go build -o "$build/bin/schedserver" ./cmd/schedserver
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -server "$build/bin/schedserver" -out "$build/out" "$@"
