#!/usr/bin/env bash
# Runs the ten-pair parent-vs-change protocol: the six BENCHMARK.json
# workloads on seeds 1-10, one untraced run per side per seed, alternating
# which side runs first (the parent on odd seeds, the change on even ones), then
# compares the two sets and prints both sides' H4 link addresses and 64-byte
# phases (EXPERIMENTS.md H4: compute and stencil-bulk walls move with the
# 64-byte phase of these functions, whatever the change touched), with a
# "WARNING: H4 phase differs" line naming each symbol whose phase differs.
# The addresses are printed first, before any run, so a move is seen before a
# wall is read, and again after the comparison.
#
#   bash bench/pairs.sh PARENT CHANGE OUTDIR
#
# PARENT and CHANGE are two checkouts of the repository; each builds its own
# benchmark from its own source (benchmark/run.sh). Reports go to
# OUTDIR/parent.jsonl and OUTDIR/change.jsonl (truncated first), the H4 tables
# to OUTDIR/h4.parent and OUTDIR/h4.change, and the comparison to stdout.
# SECONDS_PER_RUN (default 21) shortens each run for a smoke test; only the
# default is the accepted protocol. Nothing is written inside either checkout
# except its benchmark/run.sh build directory.
set -euo pipefail
if [ $# -ne 3 ]; then
	echo "usage: bash bench/pairs.sh PARENT CHANGE OUTDIR" >&2
	exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
mkdir -p "$3"
out="$(cd "$3" && pwd)"
seconds="${SECONDS_PER_RUN:-21}"

: >"$out/parent.jsonl"
: >"$out/change.jsonl"
run() { # side workload seed
	local dir="$parent"
	if [ "$1" = change ]; then
		dir="$change"
	fi
	bash "$dir/benchmark/run.sh" --workload "$2" --seed "$3" --seconds "$seconds" \
		--trace 0 --out "$out/$1.jsonl" >/dev/null
}
# h4 prints both sides' addresses and phases and a warning per symbol whose
# phase differs. Each side's binary is the one its benchmark/run.sh built.
# The For closures are the loop step and condition compute runs every iteration.
h4syms='runInterp$|buildCompute\.func1(\.[12])?$|\(\*Builder\)\.For\.func(1|2\.1)$'
h4() {
	echo "H4 link addresses and 64-byte phases (go tool nm -n .bench_build/benchmark):"
	local side dir
	for side in parent change; do
		dir="$parent"
		if [ "$side" = change ]; then
			dir="$change"
		fi
		echo "$side:"
		GOTOOLCHAIN=local go tool nm -n "$dir/.bench_build/benchmark" | grep -E "$h4syms" |
			while read -r addr _ sym; do
				echo "  $addr $sym phase $((16#$addr % 64))"
			done >"$out/h4.$side"
		cat "$out/h4.$side"
	done
	local sym phase pphase
	while read -r _ sym _ phase; do
		pphase="$(awk -v s="$sym" '$2 == s { print $4 }' "$out/h4.parent")"
		if [ "$pphase" != "$phase" ]; then
			echo "WARNING: H4 phase differs: $sym parent ${pphase:-missing}, change $phase"
		fi
	done <"$out/h4.change"
}
bash "$parent/benchmark/run.sh" --quick >/dev/null
bash "$change/benchmark/run.sh" --quick >/dev/null
h4
echo

for workload in ht-fine own-lock hot-lock stencil-bulk sim-open compute; do
	for seed in $(seq 1 10); do
		if [ $((seed % 2)) -eq 1 ]; then
			run parent "$workload" "$seed"
			run change "$workload" "$seed"
		else
			run change "$workload" "$seed"
			run parent "$workload" "$seed"
		fi
	done
done

bash "$change/benchmark/run.sh" --compare "$out/parent.jsonl" "$out/change.jsonl"
echo
h4
