#!/usr/bin/env bash
# Runs one complete set of the benchmark the way it is accepted: every
# workload on each of ten seeds with tracing off, then one traced run per
# workload, every report appended to the set file given as $1.
#
#   bash benchmark/runset.sh /tmp/set1.jsonl            # seeds 1..10
#   bash benchmark/runset.sh /tmp/set3.jsonl 11         # seeds 11..20
#   benchmark -compare /tmp/set1.jsonl /tmp/set2.jsonl  # the two-sets criterion
set -euo pipefail
set_file="$1"
first_seed="${2:-1}"
seconds="${SECONDS_PER_RUN:-21}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for workload in ht-fine own-lock hot-lock stencil-bulk sim-open compute; do
	for seed in $(seq "$first_seed" $((first_seed + 9))); do
		bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --out "$set_file" >/dev/null
	done
	bash "$here/run.sh" --workload "$workload" --seed "$first_seed" --seconds "$seconds" --trace 1 --out "$set_file" >/dev/null
done
