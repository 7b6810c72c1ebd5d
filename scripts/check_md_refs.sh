#!/bin/sh
# Fails when a tracked .go file names a *.md file that git does not track,
# so comments cannot point readers at a doc that does not exist. A name
# resolves against the repository root or the naming file's directory.
# Run via `make docs`; CI's doc lint step runs it too.
set -eu
cd "$(git rev-parse --show-toplevel)"
tracked="$(git ls-files '*.md')"
status=0
for hit in $(git ls-files -z '*.go' | xargs -0 grep -oHE '[A-Za-z0-9_./-]+\.md\b' | sort -u); do
	file="${hit%%:*}"
	ref="${hit#*:}"
	if ! printf '%s\n' "$tracked" | grep -qxF -e "$ref" -e "$(dirname "$file")/$ref"; then
		echo "$file names $ref, which git does not track" >&2
		status=1
	fi
done
exit $status
