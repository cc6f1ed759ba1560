#!/usr/bin/env bash
# Builds bench/permload from the checkout this script sits in and runs it
# with the given arguments, from the checkout's root:
#
#   bash bench/run.sh --workload chunk-warm --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the binary, Go's build cache and scratch
# files, its config and telemetry) goes under .bench_build/ in the
# checkout. The module has no dependencies outside the repository, so
# the build never downloads.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$out/permload" ./permload)
cd "$root"
exec "$out/permload" "$@"
