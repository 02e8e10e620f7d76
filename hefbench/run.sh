#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash hefbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. Build products (Go build cache,
# binary, trace files) go under $CARGO_TARGET_DIR, default .bench_build,
# so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ] || [ ! -f "$root/hefbench/go.mod" ]; then
	echo "hefbench: run from the root of a checkout of the hef module" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
out="$out/hefbench"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off GOTELEMETRY=off

go -C "$root/hefbench" build -o "$out/hefbench" .
exec "$out/hefbench" -root "$root" -out "$out" "$@"
