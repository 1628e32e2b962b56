#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags, e.g.
#
#   bash bench/run.sh --workload ensemble --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build, the Go caches and the traced
# runs' profiles all stay under .bench_build/ there; nothing else is written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local \
	GOPROXY=off GOSUMDB=off PPROF_TMPDIR="$out/tmp"

(cd "$root/bench" && go build -o "$out/e2e" ./cmd/e2e)
exec "$out/e2e" "$@"
