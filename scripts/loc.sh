#!/usr/bin/env bash
# Non-test Go code lines per package: every line of the package's
# non-test .go files except blank lines and lines holding only a //
# comment. Prints one "lines<TAB>package" row per package directory,
# sorted by path, then the total over the rows.
#
#   bash scripts/loc.sh [DIR...]     (or: make loc; DIR defaults to the whole module)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
find "${@:-.}" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 |
	xargs -0 grep -H -c -v -E '^[[:space:]]*(//.*)?$' |
	awk -F: '{ dir = $1; sub(/\/[^\/]*$/, "", dir); sub(/^\.\//, "", dir); n[dir] += $NF }
		END { for (d in n) printf "%d\t%s\n", n[d], d }' |
	sort -t "$(printf '\t')" -k2,2 |
	awk -F'\t' '{ total += $1; print } END { printf "%d\ttotal\n", total }'
