#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the bench command from
# source (the first run in a checkout; afterwards the build is a cache
# hit) and runs it. The contract lets a run read and write only inside
# its checkout, so everything the build and the run write — Go's build
# cache, module and telemetry directories, temp files, stores, span
# files — is pointed under .bench_build/, and the toolchain is told not
# to reach for the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" -tmp "$out/tmp" "$@"
