#!/bin/sh
# run.sh builds the benchmark (perfbench) and the lbd daemon from source into
# .bench_build/ at the root of the checkout, then runs perfbench with
# the given arguments, e.g.
#
#	sh perfbench/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binaries,
# cluster data directories, span files) stays under .bench_build/.
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
# The go command's cache, module cache and config (telemetry) all stay
# in the checkout; no toolchain download, no user GOFLAGS.
(
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
	export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
	cd perfbench
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/lbd" p2plb/cmd/lbd
) >&2
exec "$out/bin/perfbench" -lbd "$out/bin/lbd" -out "$out" "$@"
