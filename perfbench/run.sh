#!/usr/bin/env bash
# Builds blowfishd and the perfbench load generator from this checkout into
# .bench_build/ and runs one benchmark workload against the real daemon.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload answer_wire --seed 1 --seconds 20 --trace 0
#
# Every cache and artifact stays under .bench_build/, so the first run in a
# fresh checkout compiles the standard library too.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/blowfishd" ]; then
	echo "perfbench: run from the repository root (cmd/blowfishd not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/blowfishd" ./cmd/blowfishd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
