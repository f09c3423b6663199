#!/usr/bin/env bash
# Builds sraa, sraad and the perfbench program from this checkout into
# .bench_build/, then runs perfbench with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it writes, the Go build
# cache included, stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/sraa || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root, with the repository's sources present" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/" ./cmd/sraa ./cmd/sraad >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --bin "$out/bin" --out "$out" "$@"
