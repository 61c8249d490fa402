#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, passing every
# argument through:
#
#   bash bench/run.sh --workload c-synth-100k --seed 11 --seconds 15 --trace 0
#   bash bench/run.sh -seed 11 -out result.json     # all workloads, 5 rounds
#   bash bench/run.sh -compare old.json new.json
#
# The benchmark is a module of its own (bench/go.mod) compiled against the
# repository's packages through a replace directive, so it fails to build
# when the repository around it is missing. Every file the build and the
# run write stays under the build directory: $CARGO_TARGET_DIR when set,
# else .bench_build at the repository root. Nothing is fetched.
set -euo pipefail

cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
export BENCH_WORK="$build/work"
mkdir -p "$GOTMPDIR" "$BENCH_WORK"

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
