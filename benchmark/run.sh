#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source inside
# the checkout and runs it with the arguments given. Everything the build
# writes — binary, build cache, temporary files, the go command's own
# configuration directory — goes under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark: $root has no go.mod: not a checkout of the repository" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local \
	go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
