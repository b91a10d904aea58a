#!/usr/bin/env bash
# Committed outputs are checked outputs: regenerates each file below with its
# one command, writes it over the committed copy, and fails, naming the files,
# when any then differs from what is committed:
#
#   scripts/results.sh        (or: make results)
#
# A change that means to move an output commits the regenerated files, so the
# diff is the record. The host-timed Figures 20/21 (results/ann-timing.txt)
# are report-only and not regenerated. About two minutes on two CPUs.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/adamant-bench ./cmd/adamant-dataset ./cmd/adamant-verify ./cmd/adamant-sim ./cmd/adamant-train

"$bin/adamant-dataset" -o data/training.csv -combos 197 -jobs 2 >/dev/null 2>&1
"$bin/adamant-train" -dataset data/training.csv -hidden 24 -save data/adamant.ann >/dev/null
"$bin/adamant-bench" -all -dataset data/training.csv -runs 5 -samples 2000 >results/all-figures.txt
"$bin/adamant-bench" -all -dataset data/training.csv -runs 5 -samples 20000 >results/all-figures-20000.txt
"$bin/adamant-bench" -ablations >results/ablations.txt
"$bin/adamant-verify" -adapt | sed 's/(apply [^,]*,/(apply -,/' >results/adaptation.txt
"$bin/adamant-sim" -receivers 50 -shards 2 -proto bemcast >results/sim-sharded.txt
"$bin/adamant-train" -dataset data/training.csv -cv -epochs 200 -jobs 2 >results/ann-cv.txt
"$bin/adamant-dataset" -o results/dataset-20000.csv -combos 4 -runs 1 -samples 20000 -jobs 2 >/dev/null 2>&1

outs=(data/training.csv data/adamant.ann results/all-figures.txt results/all-figures-20000.txt
	results/ablations.txt results/adaptation.txt results/sim-sharded.txt results/ann-cv.txt
	results/dataset-20000.csv)
new=$(git ls-files --others -- "${outs[@]}")
if [ -n "$new" ]; then
	echo "not committed:" $new
fi
git diff --exit-code --stat -- "${outs[@]}" && [ -z "$new" ]
