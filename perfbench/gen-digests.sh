#!/usr/bin/env bash
# Regenerates perfbench/digests.json: the SHA-256 of what
# `mrts-sweep -fig all -seed s` prints, for video seeds 1..N (default 128,
# which covers benchmark seeds 0..31). Run it from the repository root:
#
#   bash perfbench/gen-digests.sh 128
set -euo pipefail

n=${1:-128}
bin=.bench_build/digest-tools
mkdir -p "$bin"
go build -o "$bin/" ./cmd/mrts-sweep

{
	echo '{'
	for s in $(seq 1 "$n"); do
		d=$("$bin/mrts-sweep" -fig all -workers 2 -seed "$s" 2>/dev/null | sha256sum | cut -d' ' -f1)
		sep=,
		if [ "$s" -eq "$n" ]; then sep=; fi
		printf ' "%s": "%s"%s\n' "$s" "$d" "$sep"
	done
	echo '}'
} > perfbench/digests.json.tmp
mv perfbench/digests.json.tmp perfbench/digests.json
