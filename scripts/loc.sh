#!/bin/sh
# loc.sh — engine size, reproducibly: lines of non-test Go per package,
# benchmark/ (the measuring harness, not the engine) left out. Two columns:
# every line, and code lines only (blank and comment-only lines dropped) —
# the figure a deletion PR should quote, since it cannot be moved by
# rewording comments.
#
# Usage: sh scripts/loc.sh [dir ...]   (default: the whole module)
set -eu

cd "$(dirname "$0")/.."

printf '%8s %8s  %s\n' lines code package
find "${@:-.}" -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' |
	sed 's|^\./||' | sort | awk '
	{
		file = $0
		pkg = file
		if (!sub(/\/[^\/]*$/, "", pkg)) pkg = "."
		while ((getline line < file) > 0) {
			lines[pkg]++
			if (line !~ /^[ \t]*$/ && line !~ /^[ \t]*\/\//) code[pkg]++
		}
		close(file)
		if (!(pkg in seen)) { seen[pkg] = 1; order[++n] = pkg }
	}
	END {
		for (i = 1; i <= n; i++) {
			p = order[i]
			printf "%8d %8d  %s\n", lines[p], code[p], p
			tl += lines[p]; tc += code[p]
		}
		printf "%8d %8d  total\n", tl, tc
	}'
