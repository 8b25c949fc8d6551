#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash dwbench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the repository root: the Go build cache, the binary, and the run's
# scratch WALs. The first run builds the standard library into that
# cache and takes a minute or two; later runs rebuild in seconds.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C dwbench build -o "$out/dwbench" .
exec "$out/dwbench" "$@"
