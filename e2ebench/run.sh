#!/usr/bin/env bash
# Builds the whole-run benchmark from the checkout it sits in and runs
# it with the given arguments (see README.md). Run from the repository
# root:
#
#   bash e2ebench/run.sh --workload fleet-static --seed 1 --seconds 20 --trace 0
#
# Every build artefact and the Go build cache stay under .bench_build/
# in the checkout (or $CARGO_TARGET_DIR when set); the build never
# touches the network.
set -euo pipefail
root=$(pwd)
target=${CARGO_TARGET_DIR:-.bench_build}
case $target in
/*) ;;
*) target="$root/$target" ;;
esac
out="$target/e2ebench"
mkdir -p "$out/cache" "$out/tmp"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
