#!/usr/bin/env bash
# Builds the daemon and the benchmark from the checkout this script sits in
# and runs the benchmark. Every file the build and the run leave behind goes
# under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/reprod" ./cmd/reprod
go build -C benchmark -o "$out/bench" .
exec "$out/bench" "$@"
