#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root. The build cache, Go's own config and
# telemetry files, and the binary all stay under .bench_build there.
set -e
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
