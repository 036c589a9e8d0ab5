#!/bin/sh
# run.sh — build rumord and the benchmark from this checkout, then run one
# benchmark window. Arguments pass through to rumorbench:
#
#   sh rumorbench/run.sh --workload dense-ensemble --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything built or written stays under the
# build directory ($CARGO_TARGET_DIR if set, else .bench_build): the Go build
# cache, the binaries, run state, results and traces.
set -eu

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOPROXY=off
export GOTELEMETRY=off

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/rumord" ]; then
    echo "run.sh: $root is not a dynamicrumor checkout (no go.mod / cmd/rumord)" >&2
    exit 2
fi
mkdir -p "$out/bin"
go build -o "$out/bin/rumord" ./cmd/rumord
(cd "$root/rumorbench" && go build -o "$out/bin/rumorbench" .)
exec "$out/bin/rumorbench" -root "$root" -bin "$out/bin" -out "$out" "$@"
