#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it.
# Run from the root of the repository:
#
#   bash perfbench/run.sh --workload rw-mix --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# the binary) stays under $CARGO_TARGET_DIR, default .bench_build, in
# the checkout. The driver's module imports the repository's packages
# through a relative replace directive, so outside a full checkout the
# build fails and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export TMPDIR=$out/tmp
export HOME=$out/home
export XDG_CONFIG_HOME=$out/home/.config
export XDG_CACHE_HOME=$out/home/.cache
export GOENV=off
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
