#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact, cache and trace
# stays under .bench_build in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# VCS stamping gives the run record its revision; where git cannot be
# asked (no repository, or one owned by another user), build without it.
(cd "$root/perfbench" && { go build -o "$out/perfbench" . 2>/dev/null ||
	go build -buildvcs=false -o "$out/perfbench" .; })
exec "$out/perfbench" "$@"
