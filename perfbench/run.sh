#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it;
# every argument is passed through. Build outputs, the Go build cache
# and the run's stores and span dumps all stay under .bench_build.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/perfbench.bin" .)
exec "$out/perfbench.bin" --workdir "$out/run" "$@"
