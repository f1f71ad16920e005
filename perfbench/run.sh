#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the
# given arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload faultcamp --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, campaign journals, exact-count records
# and temporary files (the verify workload's spec journals go under
# TMPDIR) all go under $CARGO_TARGET_DIR (default .bench_build), so a run
# writes nothing outside the checkout, and GOPROXY=off keeps the build
# from fetching anything: the benchmark needs only this repository.
set -euo pipefail

src=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$(pwd)/$out ;;
esac
mkdir -p "$out/home" "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config GOENV=off
export TMPDIR=$out/tmp
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local

(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
