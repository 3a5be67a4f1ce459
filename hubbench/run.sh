#!/usr/bin/env bash
# Builds the hub benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash hubbench/run.sh --workload inbound-small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, journals and spans.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/hubbench" && go build -o "$out/bin/hubbench" .)
exec "$out/bin/hubbench" "$@"
