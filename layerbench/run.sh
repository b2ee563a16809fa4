#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash layerbench/run.sh --workload mpi64 --seed 0 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/layerbench/go.mod" ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # go env and telemetry files
export XDG_CACHE_HOME="$out/gocache"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
# Provenance lookup (git rev) must not climb out of this directory.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
unset GOGC GOMEMLIMIT GODEBUG

go -C "$root/layerbench" build -o "$out/layerbench" .
exec "$out/layerbench" "$@"
