#!/usr/bin/env bash
# Builds the benchmark program (perfbench) from the checkout and runs one workload:
#
#   bash perfbench/run.sh --workload replay|numeric|serve --seed N --seconds S --trace 0|1
#
# Run it from the root of the checkout. Every build product, the Go build
# cache and the run's profiles and spans stay under .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/confluxd" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/confluxd here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

go build -C "$root/perfbench" -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
