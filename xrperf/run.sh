#!/usr/bin/env bash
# Builds xrserved from the enclosing checkout and the xrperf program, then
# runs one benchmark run:
#
#   bash xrperf/run.sh --workload genome-read --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache included). Build output goes to stderr, so the
# last line on stdout is the run's JSON summary.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
if [[ ! -f "$root/go.mod" ]]; then
	echo "xrperf: no go.mod at $root: run from a checkout of the repository" >&2
	exit 1
fi

out="$root/.bench_build/xrperf"
mkdir -p "$out" "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/tmp"
# The go command keeps its config and telemetry counters under the user
# config directory; point that into the checkout too.
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root" && go build -o "$out/xrserved" ./cmd/xrserved) >&2
(cd "$here" && go build -o "$out/xrperf" .) >&2
cd "$root"
exec "$out/xrperf" -xrserved "$out/xrserved" -out "$out" "$@"
