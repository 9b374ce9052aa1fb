#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload image-split --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every file the build writes (binary, Go
# build cache, Go's per-user state) goes under the build directory, which is
# $CARGO_TARGET_DIR when set and .bench_build otherwise. The build needs
# ../go.mod (the methodpart module); without it the script fails before
# printing a result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home"

export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

go build -C "$root/perfbench" -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
