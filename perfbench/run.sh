#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it,
# passing every argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# span files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
