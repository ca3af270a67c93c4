#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash pqbench/run.sh --workload timeline-warm --seed 1 --seconds 30 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/pqbench" && go build -buildvcs=false -o "$out/pqbench" .)
exec "$out/pqbench" -out "$out" "$@"
