#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload figs --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays in
# .bench_build/ under the root (or $CARGO_TARGET_DIR when that is set).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/home"

# The go command keeps its caches and settings inside the build directory.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOFLAGS=
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
