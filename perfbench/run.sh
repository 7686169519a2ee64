#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload p2-raw-lan --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# workloads' raw input files all stay under .bench_build/ in the checkout;
# nothing is fetched over the network.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
  XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
# Freed heap pages stay mapped (MADV_FREE) instead of being returned to the
# kernel: every round of a run sets up a fresh federation, and re-faulting
# the ~400 MB a P2 round touches costs a time that swings with the host.
export GODEBUG=madvdontneed=0
exec "$out/perfbench" -workdir "$out/work" "$@"
