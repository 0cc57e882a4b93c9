#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"): build the benchmark from
# source into .bench_build/ under the checkout root, then exec it with the
# driver's arguments. Go's build cache and every temp file the run creates
# stay inside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off
(cd "$(dirname "${BASH_SOURCE[0]}")" && go build -o "$build/mgbench-bench" .)
"$build/mgbench-bench" -prewarm "$@" || true # warm the pages the run will fault in; see prewarm in main.go
exec "$build/mgbench-bench" -repo "$root" "$@"
