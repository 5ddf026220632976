#!/bin/sh
# Runs all five workloads untraced, then traced, and merges the results
# into bench/out/results.json. Run from the repository root:
#
#   bench/run.sh                  every workload, default seed and length
#   bench/run.sh -seed 7          another seed
#   bench/run.sh -selfcheck       two sets of runs of the same code, compared
#
# collabd is compiled once into .bench_build/ by the first run; later runs
# find it in go's build cache.
set -eu
cd "$(dirname "$0")/.."
case " $* " in
*" -selfcheck "*) exec go run ./bench "$@" ;;
*) exec go run ./bench -all "$@" ;;
esac
