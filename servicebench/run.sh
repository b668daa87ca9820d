#!/usr/bin/env bash
# Builds the service benchmark from source and runs it. Run from the root of
# a checkout:
#
#   bash servicebench/run.sh --workload mine-heavy --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# working directory: the Go build cache, temporary files, the binary, the
# runs' data directories and the Chrome traces.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$here" build -o "$out/servicebench" .
exec "$out/servicebench" "$@"
