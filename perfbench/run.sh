#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#   bash perfbench/run.sh --workload geo-ycsb --seed 1 --seconds 10 --trace 0
# Every build output and the Go build cache stay under .bench_build/ in the
# checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
