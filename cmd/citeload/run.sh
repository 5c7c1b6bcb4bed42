#!/usr/bin/env bash
# Builds citeload from source and runs it from the repository root,
# passing every argument through:
#
#   bash cmd/citeload/run.sh --workload cold --seed 3 --seconds 10 --trace 0
#
# The build cache, the binary and the benchmark's scratch files all stay
# under .bench_build/ in the root, so a run reads and writes nothing
# outside the checkout. citeload is a module of its own that takes the
# program from the root (replace repro => ../..), so outside a full
# checkout the build fails and the script exits non-zero.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/gotmp" "$build/config"

(
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp"
	export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
	cd "$root/cmd/citeload"
	go build -o "$build/citeload" .
)
cd "$root"
exec "$build/citeload" "$@"
