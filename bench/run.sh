#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the repository
# root and runs it there with the given flags, e.g.
#
#   bash bench/run.sh --workload paper-sweep --seconds 15
#
# The Go build cache lives under .bench_build too, and module downloads
# and toolchain switches are off: the benchmark needs nothing beyond the
# repository and the installed Go toolchain.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
