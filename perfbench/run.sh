#!/usr/bin/env bash
# Builds the benchmark and cmd/deact-serve from the checkout's source, then
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload xlate-heavy --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout root. Builds, Go caches and run outputs all stay
# under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
go build -o "$build/bin/deact-serve" ./cmd/deact-serve

exec "$build/bin/perfbench" -root "$root" -serve-bin "$build/bin/deact-serve" "$@"
