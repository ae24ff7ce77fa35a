#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it; every argument
# is passed through (--workload, --seed, --seconds, --trace, ...). Run it
# from the repository root. Build products stay in .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOFLAGS=
(cd e2ebench && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
