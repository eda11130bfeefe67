#!/usr/bin/env bash
# Builds gbperf from the source tree it sits in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload fig4-warm --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the Go tool's temporary
# files and settings, the binary, and the benchmark's scratch files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$out/gbperf" ./gbperf) >&2
exec "$out/gbperf" "$@"
