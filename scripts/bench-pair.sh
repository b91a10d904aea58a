#!/usr/bin/env bash
# Seed-paired comparison of a parent commit and the working tree on one
# workload of the frozen benchmark:
#
#   scripts/bench-pair.sh <ref> <workload> [pairs]      (pairs defaults to 10)
#
# <ref>'s committed files are exported into .bench_build/pair/<sha>/ (a plain
# copy, as the driver of BENCHMARK.json makes; nothing is registered in .git)
# and each side builds and runs through its own benchmark/run.sh, for the run
# length BENCHMARK.json fixes. A pair is one run of each side on the same
# seed, and which side goes first alternates from pair to pair. <pairs> pairs
# run on fresh seeds (derived from the clock, so no two invocations share
# them) and <pairs> more on the held-out seed 20100612. Every run is printed
# as it finishes; the summary gives, per seed group and end-to-end metric,
# each side's median and quartiles, the pairs the change won, lost and tied
# (all metrics are lower-is-better), and the failed operations of each side.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 <ref> <workload> [pairs]" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=${3:-10}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
sha=$(git -C "$root" rev-parse --verify --quiet "$ref^{commit}") || {
	echo "$0: $ref is not a commit" >&2
	exit 2
}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")
parent=$root/.bench_build/pair/$sha
if [ ! -d "$parent" ]; then
	mkdir -p "$parent"
	git -C "$root" archive "$sha" | tar -x -C "$parent"
fi
rows=$(mktemp)
trap 'rm -f "$rows"' EXIT

# field <json> <name>: the value of end-to-end metric <name>, or of a
# top-level number, in the benchmark's closing JSON line.
field() {
	printf '%s\n' "$1" | sed -n "s/.*\"$2\":\({\"value\":\)\{0,1\}\([-+0-9.eE]*\).*/\2/p"
}

# run_side <group> <pair> <side> <dir> <seed>
run_side() {
	local json
	json=$(bash "$4/benchmark/run.sh" --workload "$workload" --seed "$5" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
	local p50 p90 setup failed
	p50=$(field "$json" latency_p50_us) p90=$(field "$json" latency_p90_us)
	setup=$(field "$json" setup_s) failed=$(field "$json" failed)
	if [ -z "$p50" ] || [ -z "$failed" ]; then
		echo "$0: $3 run on seed $5 printed no result: $json" >&2
		exit 1
	fi
	printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n' "$1" "$2" "$3" "$5" "$p50" "$p90" "$setup" "$failed" | tee -a "$rows"
}

echo "# $workload: parent $ref (${sha:0:7}) against the working tree, $pairs pairs per seed group, $seconds s runs"
printf 'group\tpair\tside\tseed\tlatency_p50_us\tlatency_p90_us\tsetup_s\tfailed\n'
fresh=$(date +%s)
for group in fresh heldout; do
	for ((i = 0; i < pairs; i++)); do
		seed=20100612
		[ "$group" = fresh ] && seed=$((fresh + i))
		if ((i % 2 == 0)); then
			run_side "$group" "$i" parent "$parent" "$seed"
			run_side "$group" "$i" change "$root" "$seed"
		else
			run_side "$group" "$i" change "$root" "$seed"
			run_side "$group" "$i" parent "$parent" "$seed"
		fi
	done
done

awk -F'\t' '
function quantile(a, n, q,    h, lo) {
	h = (n - 1) * q + 1; lo = int(h)
	if (lo >= n) return a[n]
	return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function summary(side, g, m,    n, i, v, t, j) {
	n = 0
	for (i = 0; (g, i, side, m) in val; i++) v[++n] = val[g, i, side, m]
	for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
	return sprintf("%s median %.6g [q1 %.6g, q3 %.6g]", side, quantile(v, n, .5), quantile(v, n, .25), quantile(v, n, .75))
}
{
	for (m = 5; m <= 7; m++) val[$1, $2, $3, m] = $m
	failed[$1, $3] += $8
	if (!($1 in seen)) { seen[$1] = 1; order[++groups] = $1 }
	if ($2 + 1 > pairs[$1]) pairs[$1] = $2 + 1
}
END {
	name[5] = "latency_p50_us"; name[6] = "latency_p90_us"; name[7] = "setup_s"
	for (k = 1; k <= groups; k++) {
		g = order[k]
		printf "\n## %s seeds, %d pairs: failed parent %d, change %d\n", g, pairs[g], failed[g, "parent"], failed[g, "change"]
		for (m = 5; m <= 7; m++) {
			win = lose = tie = 0
			for (i = 0; i < pairs[g]; i++) {
				p = val[g, i, "parent", m] + 0; c = val[g, i, "change", m] + 0
				if (c < p) win++; else if (c > p) lose++; else tie++
			}
			printf "%-15s %s | %s | change wins %d, loses %d, ties %d\n", name[m], summary("parent", g, m), summary("change", g, m), win, lose, tie
		}
	}
}' "$rows"
