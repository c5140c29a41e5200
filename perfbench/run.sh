#!/usr/bin/env bash
# Builds rfdfig, rfdd and the benchmark from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload rfdd-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under .bench_build/ in the current
# directory (Go's build cache included).
set -euo pipefail

root=$(pwd)
test -f "$root/go.mod" || { echo "perfbench: run from the repository root" >&2; exit 2; }
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off
export CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/rfdfig ./cmd/rfdd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
