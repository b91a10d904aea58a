#!/usr/bin/env bash
# Prints the non-test Go lines (wc -l: code, comments and blanks) of every
# package under internal/ and cmd/, one "lines package" row each, then the
# total of internal/transport with its subpackages and the total of
# internal/ and cmd/ together:
#
#   scripts/loc.sh        (or: make loc)
#
# Line targets of simplicity changes are measured with it. It exits
# non-zero, naming the package, when one passes its cap below: a change
# that must grow past a cap raises it here and says why.
set -euo pipefail

broker_cap=3330     # internal/broker
transport_cap=4420  # internal/transport/... (total)
dds_cap=620         # internal/dds: ParticipantConfig.Writers, for readers of several writer nodes
core_cap=621        # internal/core
experiment_cap=1846 # internal/experiment

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"

find internal cmd -name '*.go' ! -name '*_test.go' -print0 | xargs -0 wc -l |
	awk -v broker_cap="$broker_cap" -v transport_cap="$transport_cap" -v dds_cap="$dds_cap" -v core_cap="$core_cap" \
		-v experiment_cap="$experiment_cap" '$2 != "total" {
		dir = $2; sub("/[^/]*$", "", dir)
		lines[dir] += $1
		all += $1
		if (dir == "internal/transport" || index(dir, "internal/transport/") == 1) transport += $1
	}
	END {
		for (d in lines) printf "%6d %s\n", lines[d], d | "sort -k2"
		close("sort -k2")
		printf "%6d internal/transport/... (total)\n", transport
		printf "%6d internal/ + cmd/ (total)\n", all
		over = 0
		if (lines["internal/broker"] > broker_cap) {
			printf "internal/broker: %d lines, over its cap of %d\n", lines["internal/broker"], broker_cap > "/dev/stderr"
			over = 1
		}
		if (lines["internal/dds"] > dds_cap) {
			printf "internal/dds: %d lines, over its cap of %d\n", lines["internal/dds"], dds_cap > "/dev/stderr"
			over = 1
		}
		if (lines["internal/core"] > core_cap) {
			printf "internal/core: %d lines, over its cap of %d\n", lines["internal/core"], core_cap > "/dev/stderr"
			over = 1
		}
		if (lines["internal/experiment"] > experiment_cap) {
			printf "internal/experiment: %d lines, over its cap of %d\n", lines["internal/experiment"], experiment_cap > "/dev/stderr"
			over = 1
		}
		if (transport > transport_cap) {
			printf "internal/transport/...: %d lines, over its cap of %d\n", transport, transport_cap > "/dev/stderr"
			over = 1
		}
		exit over
	}'
