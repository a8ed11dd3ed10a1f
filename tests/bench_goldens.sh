#!/usr/bin/env bash
# Checks a build's bench drivers against the committed goldens in
# tests/goldens/:
#   * fig07, table1 and fig12: --fast stdout (with the window exporters on,
#     which must not perturb a simulated byte), perf-stat report and PMU
#     counter digest;
#   * server_kv, server_orderbook and server_inventory: the --fast stdout
#     scoreboard, per-phase table included;
#   * extension_hle_vs_rtm: the --fast stdout table;
#   * every obs exporter's bytes (tests/obs_outputs.sh), at --jobs 1 and at
#     --jobs 4 against the same hashes;
#   * what only some runs write: data rows from --timeseries alone, and the
#     lock-elision and heap blocks and manifest members.
# ctest runs it as determinism.goldens; by hand:
#
#   tests/bench_goldens.sh build/bench
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 BENCH_DIR" >&2
  exit 2
fi
bench="$(cd "$1" && pwd)"
tests="$(cd "$(dirname "$0")" && pwd)"
goldens="$tests/goldens"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
cd "$out"

for d in fig07:fig07_contention table1:table1_overhead \
         fig12:fig12_abort_distribution; do
  g=${d%%:*}
  bin=${d##*:}
  "$bench/$bin" --fast --csv --jobs=4 --metrics="$g.prom" \
    --flamegraph="$g.folded" > "$g.csv.txt" 2> /dev/null
  diff -u "$goldens/${g}_fast_csv.txt" "$g.csv.txt"
  "$bench/$bin" --fast --perf-stat="$g.ps.txt" --manifest="$g.mf.json" \
    --jobs=1 > /dev/null 2>&1
  diff -u "$goldens/${g}_perf_stat.txt" "$g.ps.txt"
  grep counter_digest "$g.mf.json" | grep -o '0x[0-9a-f]*' > "$g.digest"
  diff -u "$goldens/${g}_counter_digest.txt" "$g.digest"
done

for bin in server_kv server_orderbook server_inventory extension_hle_vs_rtm; do
  "$bench/$bin" --fast --csv --jobs=4 > "$bin.csv.txt" 2> /dev/null
  diff -u "$goldens/${bin}_fast_csv.txt" "$bin.csv.txt"
done

for jobs in 1 4; do
  "$tests/obs_outputs.sh" "$bench" "$jobs" > "obs_outputs.j$jobs.sha256"
  diff -u "$goldens/obs_outputs.sha256" "obs_outputs.j$jobs.sha256"
done

"$bench/fig07_contention" --fast --timeseries=ts.csv > /dev/null 2>&1
[ "$(wc -l < ts.csv)" -gt 1 ]

"$bench/extension_elision" --fast --perf-stat=elide.ps.txt \
  --manifest=elide.mf.json > /dev/null 2>&1
grep -q 'lock elision (per lock)' elide.ps.txt
grep -q '"elide_locks": \[{"name": ' elide.mf.json
"$bench/extension_malloc_placement" --fast --perf-stat=mp.ps.txt \
  --manifest=mp.mf.json > /dev/null 2>&1
grep -q 'heap (malloc placement)' mp.ps.txt
grep -q '"heap": {"policy": ' mp.mf.json

echo "OK: goldens"
