#!/usr/bin/env bash
# Builds the tpperf benchmark from the sources in the current checkout
# and runs one workload:
#
#   bash tpperf/run.sh --workload sweep|verify|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The binary, the Go build cache and
# the run's temporary stores and span file all stay under .bench_build
# in the current directory, so the first run builds from scratch and
# later runs reuse the cache.
set -euo pipefail

out="$PWD/.bench_build"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
# The go command keeps its telemetry counters under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$out/config"

(cd "$src" && go build -buildvcs=false -o "$out/tpperf" .) >&2
exec "$out/tpperf" -workdir "$out" "$@"
