#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload dbpedia_point --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binary and the durable stores' temporary directories.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ must be here)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build="$root/$build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)

TMPDIR="$build/tmp" exec "$build/perfbench" "$@"
