#!/usr/bin/env bash
# Builds the delprop request benchmark from source and runs it. Run it
# from the repository root; every flag is passed on to the benchmark:
#
#   bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache and the traced run's span files stay
# under .bench_build/ at the repository root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/cache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/traces" "$@"
