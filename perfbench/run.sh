#!/usr/bin/env bash
# Builds the perfbench program and the cmd/serve and cmd/hanccr-lb
# binaries from this checkout, then runs perfbench:
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 20 --trace 0
#
# Every build artifact, Go cache and scratch file stays under
# .bench_build at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
cd "$root"
go build -o "$out/bin/serve" ./cmd/serve
go build -o "$out/bin/hanccr-lb" ./cmd/hanccr-lb
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" "$@"
