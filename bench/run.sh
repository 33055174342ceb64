#!/usr/bin/env bash
# Entry point of the repository benchmark (see bench/README.md). Run it
# from the repository root:
#
#   bash bench/run.sh --workload sweep-full --seed 1 --seconds 20 --trace 0
#
# It builds bench/ from source with every Go cache, temp and config
# directory kept under .bench_build/, then runs the benchmark binary with
# the given arguments. The build fails, and so does this script, when the
# simulator sources are not beside bench/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	XDG_CACHE_HOME="$out/home" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/pintebench" .)
exec "$out/pintebench" -workdir "$out" "$@"
