#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash repobench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The Go build cache, the binary and
# the workloads' scratch files all stay under .bench_build (or
# $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home"

# Keep every file the go command writes inside the checkout.
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOFLAGS=

# The commit for the environment stamp, when the checkout is a git work tree.
commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
fi

go -C "$root/repobench" build -buildvcs=false -o "$out/repobench" .
exec "$out/repobench" -commit "$commit" -work "$out/work" -spans "$out/spans" "$@"
