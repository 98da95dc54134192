#!/usr/bin/env bash
# Builds the benchmark and the ftesd daemon from this checkout, then runs
# one workload. Run from the checkout root:
#
#   bash perfbench/run.sh --workload cc-design --seed 1 --seconds 50 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/ftesd" repro/cmd/ftesd) >&2
exec "$out/bin/perfbench" --ftesd "$out/bin/ftesd" "$@"
