#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# (build cache, module cache and the go command's own config and telemetry
# directory included, so nothing is written outside the checkout) and runs it
# with the given arguments from the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bench" .) >&2
cd "$root"
exec "$build/bench" "$@"
