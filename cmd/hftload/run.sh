#!/usr/bin/env bash
# Builds hftload from source and runs it, from the root of a checkout:
#
#   bash cmd/hftload/run.sh --workload hot-tables --seed 1 --seconds 30 --trace 0
#
# hftload is a package of the repository's module, so it builds from the
# checkout's go.mod. Everything the build and the run write — Go's build
# cache and temp files, the binary, the fleet's stores, a traced run's
# spans — stays under .bench_build/ in the checkout. The build never
# touches the network: a missing dependency fails it instead. Outside a
# full checkout (no hftnetview go.mod in the working directory) the
# script exits non-zero without building or running anything.
set -euo pipefail

root=$(pwd)
if ! grep -qx 'module hftnetview' "$root/go.mod" 2>/dev/null; then
	echo "run.sh: run from the root of a full hftnetview checkout" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/spans"
# HOME too: the go command keeps its telemetry counters and user config
# under the user's config directory.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/hftload" ./cmd/hftload
exec "$out/hftload" -workdir "$out/tmp" -spans "$out/spans" "$@"
