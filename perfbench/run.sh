#!/usr/bin/env bash
# Builds the benchmark and tyrd from this source tree, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-medium --seed 1 --seconds 35 --trace 0
#
# Everything it writes (binaries, the Go build cache and config, tyrd's
# log) goes under .bench_build/ in the current directory. With the sources outside
# perfbench/ missing, the build fails and so does the run.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# The benchmark is a module of its own whose `repro` dependency is the
# tree above it, so both binaries are built from this checkout.
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/tyrd" repro/cmd/tyrd)

exec "$out/bin/perfbench" -tyrd "$out/bin/tyrd" "$@"
