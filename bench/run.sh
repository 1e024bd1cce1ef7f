#!/bin/sh
# Builds the benchmark from source and runs it with the given flags. Run it
# from the repository root:
#
#	sh bench/run.sh -seed 20130527
#	sh bench/run.sh --workload sweep_adaptive --seed 7 --seconds 15 --trace 1
#
# Everything the build and the run write (Go build cache, temp files, the
# campaign run stores, the binary) stays under .bench_build/ in the current
# directory.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -buildvcs=false -o "$out/nsmac-bench" .)
exec "$out/nsmac-bench" "$@"
