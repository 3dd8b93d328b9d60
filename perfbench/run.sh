#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload boutique-closed --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The binary and the Go build cache go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout. Fails, printing no result, when the simulator sources are
# missing.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
export CARGO_TARGET_DIR=$out
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
