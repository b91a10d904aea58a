#!/usr/bin/env bash
# Fails when README.md, DESIGN.md or EXPERIMENTS.md cites a command that
# cannot run in this tree:
#
#   scripts/check-docs.sh
#
# Checked are every ./cmd/<x>, ./internal/<pkg> and ./examples/<x> path (as in
# `go run ./cmd/adamant-bench`, `go test ./internal/sim/...`), which must
# exist; every `make <target>` written as a command (at the start of a line,
# after a backtick or after "or: "), which must be a Makefile target; and
# every Test..., Benchmark... or Fuzz... name, which must begin the name of a
# function a _test.go in the tree declares (so BenchmarkSchedule* passes when
# BenchmarkScheduleArg exists). Each miss is printed as file:line.
#
# Every -flag cited after an adamant-<cmd> command name (as in
# `adamant-bench -fig 4 -runs 5` or `go run ./cmd/adamant-sim -storm`) must
# be defined in cmd/<cmd>/main.go: a deleted flag leaves no stale recipe.
#
# Every transport spec cited as name(key=...) (as in `nakcast(timeout=5ms)`)
# must name a protocol: a const Name under internal/transport/*/. Each of its
# keys must be one that protocol reads: a Param("key" in a non-test file of
# internal/transport/<name>/, so a removed spec key leaves no stale spec.
#
# Every Go identifier backticked in a row of DESIGN.md's "System inventory"
# (an exported name such as `Adaptor`, or a qualified one such as
# `serverClient.feed`) must be declared in that row's package, the first
# internal/ path of the row: as a func, method, type, const, var or struct
# field of a non-test file in that directory (gofmt layout assumed).
#
# It also fails when a func Fuzz... that a _test.go outside the nested
# benchmark/ module declares is not run by the Makefile's fuzz-smoke recipe
# (as "-fuzz Name " or "-fuzz Name$$ ").
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
docs=(README.md DESIGN.md EXPERIMENTS.md)
bad=0

# The sed drops a trailing /... or full stop: ./internal/ann/... names ./internal/ann.
while IFS=: read -r file line path; do
	if [ ! -e "$path" ]; then
		echo "$file:$line: $path does not exist"
		bad=1
	fi
done < <(grep -noE '\./(cmd|internal|examples)/[A-Za-z0-9_./-]+' "${docs[@]}" | sed -E 's#[./]+$##')

while IFS=: read -r file line cmd; do
	target=${cmd##*make }
	if ! grep -qE "^$target:" Makefile; then
		echo "$file:$line: make $target is not a Makefile target"
		bad=1
	fi
done < <(grep -noE '(^|`|or: )make [a-z][a-z0-9-]*' "${docs[@]}")

declared=$(git ls-files -z --cached --others --exclude-standard '*_test.go' | xargs -0 grep -hoE '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]*' | sed 's/^func //')
while IFS=: read -r file line name; do
	if ! grep -q "^$name" <<<"$declared"; then
		echo "$file:$line: no _test.go declares $name"
		bad=1
	fi
done < <(grep -noE '\b(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*' "${docs[@]}")

# A citation runs from the command name over its flags and their values, up
# to a backtick, pipe, semicolon, parenthesis, ampersand or the end of line.
while IFS=: read -r file line cite; do
	cmd=${cite%% *}
	main=cmd/$cmd/main.go
	for f in $(grep -oE '(^| |\[)-[a-z][a-z0-9-]*' <<<"${cite#* }" | sed -E 's/^[ []?-//'); do
		if [ ! -f "$main" ] || ! grep -qE "flag\.[A-Za-z0-9]+\(\"$f\"" "$main"; then
			echo "$file:$line: $cmd does not define -$f"
			bad=1
		fi
	done
done < <(grep -noE 'adamant-[a-z]+( +[^ `|;()&]+)*' "${docs[@]}")

protocols=$(grep -hoE '^const Name = "[a-z0-9]+"' internal/transport/*/*.go | sed -E 's/.*"(.*)"/\1/')
while IFS=: read -r file line cite; do
	name=${cite%%(*}
	if ! grep -qx "$name" <<<"$protocols"; then
		echo "$file:$line: no transport package names the protocol of $cite)"
		bad=1
		continue
	fi
	for key in $(grep -oE '(^|,) *[a-z]+=' <<<"${cite#*(}" | tr -d ', ='); do
		if ! find "internal/transport/$name" -maxdepth 1 -name '*.go' ! -name '*_test.go' \
			-exec grep -qF "Param(\"$key\"" {} + 2>/dev/null; then
			echo "$file:$line: $name reads no spec key $key (cited in $cite))"
			bad=1
		fi
	done
done < <(grep -noE '\b[a-z][a-z0-9]*\([a-z]+=[^)`]*' "${docs[@]}")

# declared DIR NAME: NAME begins a declaration in DIR's non-test Go files.
declared() {
	local re="^func (\\([^)]*\\) )?$2[[(]|^(type|const|var) $2\\b|^"$'\t'"+(\\w+, *)*$2(, *\\w+)*( +[^ =:(,]| *=|\$)"
	find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec grep -qE "$re" {} + 2>/dev/null
}
while IFS=: read -r line row; do
	pkg=
	[[ $row =~ \`(internal/[a-z0-9/]+)\` ]] && pkg=${BASH_REMATCH[1]}
	for id in $(grep -oE '`[A-Za-z_][A-Za-z0-9_.]*`' <<<"$row" | tr -d '`' | grep -E '^[A-Z]|\.'); do
		for part in ${id//./ }; do
			if [ -z "$pkg" ] || ! declared "$pkg" "$part"; then
				echo "DESIGN.md:$line: ${pkg:-no package} does not declare $id"
				bad=1
				break
			fi
		done
	done
done < <(awk '/^## System inventory/ { on = 1; next } /^## / { on = 0 } on && /^\| [0-9]/ { print NR ":" $0 }' DESIGN.md)

recipe=$(awk '/^fuzz-smoke:/ { on = 1; next } on && !/^\t/ { exit } on' Makefile)
while read -r name; do
	if ! grep -qE -- "-fuzz $name(\\\$\\\$)? " <<<"$recipe"; then
		echo "Makefile: fuzz-smoke does not run $name"
		bad=1
	fi
done < <(git ls-files -z --cached --others --exclude-standard '*_test.go' ':!benchmark' |
	xargs -0 grep -hoE '^func Fuzz[A-Za-z0-9_]*' | sed 's/^func //')

exit $bad
