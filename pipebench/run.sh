#!/usr/bin/env bash
# Builds the pipebench binary from this checkout's source and runs it from
# the checkout root with the given flags, e.g.
#
#	bash pipebench/run.sh --workload pipeline --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, and the scratch directory
# (TMPDIR) that holds collector WALs, spools and campaign traces.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$out/pipebench" .) >&2

cd "$root"
TMPDIR="$out/tmp" exec "$out/pipebench" "$@"
