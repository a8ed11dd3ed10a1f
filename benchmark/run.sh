#!/usr/bin/env bash
# Builds the tsxlab benchmark from source and runs it.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N]
#                    [--trace 0|1|FILE] [--out FILE] [--smoke]
#
# Without --workload it runs all four workloads, each in its own process.
# The build goes to build-bench/ at the repository root, and relative paths
# in the arguments are taken from the repository root. Build output goes to
# stderr; stdout carries only the benchmark's metric lines and JSON.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build=build-bench

if [ ! -f src/CMakeLists.txt ] || [ ! -f CMakeLists.txt ]; then
  echo "run.sh: tsxlab sources not found in $root" >&2
  exit 1
fi

jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target tsxbench -j "$jobs" >&2

for arg in "$@"; do
  case "$arg" in
    --workload | --workload=*) exec "$build/tsxbench" "$@" ;;
  esac
done

status=0
for w in eigen-1t stamp-rtm stamp-tinystm server-mix; do
  "$build/tsxbench" --workload "$w" "$@" || status=1
done
exit "$status"
