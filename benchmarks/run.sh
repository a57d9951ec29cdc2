#!/usr/bin/env bash
# Entry point of the repository benchmark (BENCHMARK.json's command).
#
#   bash benchmarks/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmarks/run.sh aa -runs 5
#   bash benchmarks/run.sh compare old.json new.json
#
# It builds the benchmark and the `paracosm` binary it drives from the
# checkout it sits in, then hands every argument to the benchmark. Build
# outputs and every cache the go command writes stay under .bench_build/
# at the root of the checkout, so a run reads and writes nothing outside
# it; traces and per-run scratch directories go to benchmarks/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local     # never fetch another toolchain
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters

(
    cd "$here"
    go build -o "$build/bench" ./cmd/bench
    go build -o "$build/paracosm" paracosm/cmd/paracosm
)

common=(-paracosm "$build/paracosm" -out "$here/out")
case "${1:-}" in
aa)
    shift
    exec "$build/bench" aa "${common[@]}" -contract "$root/BENCHMARK.json" "$@"
    ;;
compare)
    shift
    exec "$build/bench" compare -contract "$root/BENCHMARK.json" "$@"
    ;;
*)
    exec "$build/bench" "${common[@]}" "$@"
    ;;
esac
