#!/usr/bin/env bash
# Output pins of the middleware: builds <ref> and the working tree and cmp's
# what each side prints for the commands whose output must not move:
#
#   scripts/pins.sh <ref>        (or: make pins REF=<ref>)
#
# <ref>'s committed files are exported into .bench_build/pair/<sha>/, the same
# plain copy scripts/bench-pair.sh makes. The pins:
#
#   fig-t1        adamant-bench -fig t1
#   fig-4         adamant-bench -fig 4 -samples 200 -runs 2 -jobs 4
#   ablations     adamant-bench -ablations
#   dataset       adamant-dataset -combos 4 -runs 1 -samples 20000 -jobs 2 (the CSV)
#   adapt         adamant-verify -adapt, with the host-clock "apply" time masked
#   sim-sharded   adamant-sim -receivers 50 -shards 2 -proto bemcast
#   ann-cv        adamant-train -dataset data/training.csv -cv -epochs 200 -jobs 2
#
# One "same" or "DIFF" line per pin; the exit status is 1 when any differs.
# Outputs stay in .bench_build/pins/{parent,change}/ for a diff. A run takes
# a few minutes on two CPUs.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: $0 <ref>" >&2
	exit 2
fi
ref=$1
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
sha=$(git -C "$root" rev-parse --verify --quiet "$ref^{commit}") || {
	echo "$0: $ref is not a commit" >&2
	exit 2
}
parent=$root/.bench_build/pair/$sha
if [ ! -d "$parent" ]; then
	mkdir -p "$parent"
	git -C "$root" archive "$sha" | tar -x -C "$parent"
fi
out=$root/.bench_build/pins
rm -rf "$out"
mkdir -p "$out/parent" "$out/change"

# run_side <src> <dir>: builds the five commands of <src> into <dir> and
# writes every pin's output there.
run_side() {
	local d=$2
	(cd "$1" && go build -o "$d/" ./cmd/adamant-bench ./cmd/adamant-dataset ./cmd/adamant-verify ./cmd/adamant-sim ./cmd/adamant-train)
	"$d/adamant-bench" -fig t1 >"$d/fig-t1"
	"$d/adamant-bench" -fig 4 -samples 200 -runs 2 -jobs 4 >"$d/fig-4"
	"$d/adamant-bench" -ablations >"$d/ablations"
	"$d/adamant-dataset" -o "$d/dataset" -combos 4 -runs 1 -samples 20000 -jobs 2 >/dev/null 2>&1
	"$d/adamant-verify" -adapt | sed 's/(apply [^,]*,/(apply -,/' >"$d/adapt"
	"$d/adamant-sim" -receivers 50 -shards 2 -proto bemcast >"$d/sim-sharded"
	"$d/adamant-train" -dataset "$1/data/training.csv" -cv -epochs 200 -jobs 2 >"$d/ann-cv"
}

echo "# output pins: $ref (${sha:0:7}) against the working tree"
run_side "$parent" "$out/parent"
run_side "$root" "$out/change"
status=0
for pin in fig-t1 fig-4 ablations dataset adapt sim-sharded ann-cv; do
	if cmp -s "$out/parent/$pin" "$out/change/$pin"; then
		echo "same  $pin"
	else
		echo "DIFF  $pin"
		status=1
	fi
done
exit $status
