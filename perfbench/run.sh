#!/usr/bin/env bash
# Builds the outside-in benchmark program from source and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The build cache, the binary, the cell stores
# and the span dumps all go under .bench_build/, so the run writes nothing
# outside the checkout. A build failure (for example in a directory that
# holds only the benchmark) exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --root "$root" "$@"
