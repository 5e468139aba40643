#!/bin/sh
# linedelta.sh PARENT — the net line delta of non-test Go outside bench/
# between PARENT and the working tree: lines added, removed and net,
# per package directory and overall. Tracked changes come from
# `git diff --numstat PARENT`; new files not yet added to git count as
# wholly added. Run from the repo root:
#
#   sh scripts/linedelta.sh HEAD~1
set -eu

if [ $# -ne 1 ]; then
	echo "usage: $0 PARENT" >&2
	exit 2
fi
git rev-parse --verify --quiet "$1^{commit}" >/dev/null || {
	echo "linedelta: unknown commit $1" >&2
	exit 2
}

{
	git diff --numstat "$1" -- '*.go' ':(exclude)*_test.go' ':(exclude)bench/**'
	git ls-files --others --exclude-standard -- '*.go' ':(exclude)*_test.go' ':(exclude)bench/**' |
		while IFS= read -r f; do
			printf '%s\t0\t%s\n' "$(wc -l <"$f")" "$f"
		done
} | awk -F '\t' '
	{
		dir = $3
		sub(/\/[^\/]*$/, "", dir)
		if (dir == $3) dir = "."
		add[dir] += $1; del[dir] += $2
		tadd += $1; tdel += $2
	}
	END {
		printf "%-28s %7s %7s %7s\n", "package", "added", "removed", "net"
		for (d in add) printf "%-28s %7d %7d %+7d\n", d, add[d], del[d], add[d] - del[d] | "sort"
		close("sort")
		printf "%-28s %7d %7d %+7d\n", "total", tadd, tdel, tadd - tdel
	}'
