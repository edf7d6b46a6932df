#!/usr/bin/env bash
# Builds phi-bench and the benchmark from the checkout it is run in, then
# runs the benchmark with the given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload grid-batch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): Go's build cache, module
# path and user config (where the go command keeps telemetry counters)
# are pointed there too.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin" "$build/tmp" "$build/work" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/bin/phi-bench" ./cmd/phi-bench >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
# Not exec: the benchmark reads its children's peak RSS, and an exec'd
# process would inherit the build's (the linker's) as its own.
"$build/bin/perfbench" -worker-bin "$build/bin/phi-bench" -work-dir "$build/work" \
	-spec-file "$root/BENCHMARK.json" "$@"
