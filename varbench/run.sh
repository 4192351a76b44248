#!/usr/bin/env bash
# Builds the varbench benchmark from source and runs it with the given flags:
#
#   bash varbench/run.sh --workload admit --seed 1 --seconds 10 --trace 0
#
# Run from the root of a varpower checkout. The build cache, temporary files
# and the binary stay under .bench_build/ in that checkout, and the toolchain
# is never downloaded: the installed Go is used as is.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/varbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
       GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go -C "$root/varbench" build -o "$out/varbench" . >&2
exec "$out/varbench" "$@"
