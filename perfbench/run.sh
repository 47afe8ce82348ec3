#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload table56-s953 --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it writes (the binary,
# the Go build cache and temporary files, the span files and the job
# service's scratch data) goes under the build directory:
# $CARGO_TARGET_DIR when set, otherwise .bench_build. The build output
# goes to stderr, so the last line of stdout is the benchmark's result
# line.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

PERFBENCH_OUT=$out PERFBENCH_COMMIT=$commit exec "$out/perfbench" "$@"
