#!/usr/bin/env bash
# Builds perfbench from the checkout's source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sp-archive --seed 1 --seconds 20 --trace 0
#
# Every build artifact and Go cache stays under the checkout, in
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
