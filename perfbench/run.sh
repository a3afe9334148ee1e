#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload serve-8-open --seed 1 --seconds 20 --trace 0
#
# The Go build cache and the binary live under .bench_build/perfbench, so
# the build reads and writes nothing outside the checkout but the Go
# toolchain itself. Module downloads and toolchain switches are off: the
# benchmark needs only the standard library and the repository's own module.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
go -C perfbench build -buildvcs=false -o "$out/perfbench" .
commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
PERFBENCH_COMMIT=$commit exec "$out/perfbench" "$@"
