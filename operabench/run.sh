#!/usr/bin/env bash
# Builds the OPERA benchmark from the sources of the checkout it runs in
# and runs one workload:
#
#   bash operabench/run.sh --workload coupled-6800 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs and the Go caches stay
# under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=
(cd "$root/operabench" && go build -o "$out/operabench" .)
exec "$out/operabench" "$@"
