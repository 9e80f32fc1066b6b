#!/bin/sh
# Net production Go lines: every line (as wc -l counts them) of the non-test
# .go files outside testdata, per package directory, with a total per module.
# The root module and pipebench, a module of its own, are reported separately.
# Read-only; `make loc` runs it.
set -eu
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.*' |
	LC_ALL=C sort | xargs wc -l | awk '
	$2 != "total" {
		dir = $2
		sub(/\/[^\/]*$/, "", dir)
		sub(/^\.\//, "", dir)
		mod = (dir == "pipebench" || dir ~ /^pipebench\//) ? "pipebench" : "smartusage"
		if (!((mod, dir) in lines)) order[mod] = order[mod] " " dir
		lines[mod, dir] += $1
		total[mod] += $1
	}
	END {
		split("smartusage pipebench", mods, " ")
		for (m = 1; m <= 2; m++) {
			mod = mods[m]
			printf "module %s\n", mod
			n = split(order[mod], dirs, " ")
			for (i = 1; i <= n; i++)
				printf "  %-28s %6d\n", dirs[i], lines[mod, dirs[i]]
			printf "  %-28s %6d\n", "total", total[mod]
		}
	}'
