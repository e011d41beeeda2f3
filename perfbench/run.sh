#!/usr/bin/env bash
# Builds the benchmark driver from the sources of this checkout and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload replay-apps --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare OLD.json NEW.json
#
# Every build artefact, temporary file and result stays under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
