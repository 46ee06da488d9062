#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it once:
#
#   bash bench/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#
# Run it from the root of the checkout. Everything the go command writes
# (build cache, binary) stays under .bench_build in the checkout; the first
# run there compiles the standard library and takes about a minute.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build_dir="$(pwd)/.bench_build"
mkdir -p "$build_dir"

export GOCACHE="$build_dir/go-cache"
export GOMODCACHE="$build_dir/go-mod"
export XDG_CONFIG_HOME="$build_dir/config" # go's telemetry counters
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# Stamp the commit by hand: go's own VCS stamping fails the build when git is
# present but refuses to read the checkout.
commit=unknown
if rev=$(git -C "$bench_dir" rev-parse HEAD 2>/dev/null); then
	commit=$rev
	[[ -z $(git -C "$bench_dir" status --porcelain 2>/dev/null) ]] || commit+="+dirty"
fi

go build -C "$bench_dir" -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build_dir/raalbench" .
exec "$build_dir/raalbench" "$@"
