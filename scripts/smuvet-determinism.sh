#!/bin/sh
# Byte-stability gate for smuvet's machine-readable output: run the
# multichecker twice in -sarif mode over the analyzer fixture packages — the
# only tree guaranteed to produce diagnostics from every analyzer — and
# require byte-identical output. This catches map-order or position
# nondeterminism in the analyzers and the encoder before a consumer starts
# diffing CI runs.
#
# The fixture directories must be named explicitly: go list wildcards skip
# testdata, which is exactly why the fixtures live there.
set -eu
cd "$(dirname "$0")/.."

DIRS="./internal/smuvet/testdata/src/sim \
./internal/smuvet/testdata/src/analysis \
./internal/smuvet/testdata/src/guarded \
./internal/smuvet/testdata/src/wal \
./internal/smuvet/testdata/src/zerocopy \
./internal/smuvet/testdata/src/commit \
./internal/smuvet/testdata/src/collector \
./internal/smuvet/testdata/src/macro"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run_sarif() { # $1 = output file
	set +e
	# shellcheck disable=SC2086  # DIRS is a word list on purpose
	go run ./cmd/smuvet -sarif $DIRS >"$1"
	st=$?
	set -e
	# Exit 1 means diagnostics were found, which is the point of the
	# fixtures; anything else is a load or encode failure.
	if [ "$st" -ne 1 ]; then
		echo "smuvet-determinism: expected exit 1 (fixture diagnostics) from smuvet -sarif, got $st" >&2
		exit 1
	fi
}

run_sarif "$tmp/a"
run_sarif "$tmp/b"
if ! cmp -s "$tmp/a" "$tmp/b"; then
	echo "smuvet-determinism: smuvet -sarif output differs between two runs over an identical tree:" >&2
	diff "$tmp/a" "$tmp/b" >&2 || true
	exit 1
fi
echo "smuvet-determinism: -sarif output byte-stable ($(wc -c <"$tmp/a") bytes)"
