#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments,
# from the repository root. Everything the build and the runs leave
# behind (compiler cache, binary, traces) stays under .bench_build/.
#
#   bash perfbench/run.sh --workload batch-ladder --seed 1 --seconds 25 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
