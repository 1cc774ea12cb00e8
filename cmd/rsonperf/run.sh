#!/usr/bin/env bash
# Builds rsonperf and the rsonpathd daemon from this checkout into
# .bench_build/ and runs rsonperf with the given arguments. Run it from the
# repository root:
#
#   bash cmd/rsonperf/run.sh --workload scan --seed 1 --seconds 20 --trace 0
#   bash cmd/rsonperf/run.sh compare runs/a/*.json runs/b/*.json
#
# The Go build cache and temporary files stay inside .bench_build/, so the
# first run in a fresh checkout compiles the standard library (tens of
# seconds); later runs only re-link what changed. VCS stamping is off so a
# checkout that is not a git repository builds the same way; rsonperf asks
# git for the commit itself.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C cmd/rsonperf build -o "$out/rsonperf" .
go build -o "$out/rsonpathd" ./cmd/rsonpathd
exec "$out/rsonperf" "$@"
