#!/usr/bin/env bash
# Builds the load generator and the two daemons it drives, then runs the
# load generator with the given arguments. Building happens here, before
# any clock starts. Everything the Go tool writes — build cache, module
# cache, its own configuration and counters — is pointed under .giantbench/
# in the checkout, as is everything the load generator writes.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.giantbench"
HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS= GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off \
	go build -C benchmark -o "$out/bin/" . giant/cmd/giantd giant/cmd/giantrouter
exec "$out/bin/benchmark" -work "$out/work" "$@"
