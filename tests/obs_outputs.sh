#!/usr/bin/env bash
# Hashes what the obs exporters write on three bench drivers: one
# "sha256  name" line per output, in a fixed order. The committed list is
# tests/goldens/obs_outputs.sha256; check a build against it with
#
#   tests/obs_outputs.sh build/bench > obs_outputs.sha256
#   diff -u tests/goldens/obs_outputs.sha256 obs_outputs.sha256
#
# The argument is the directory holding the built fig07_contention,
# extension_elision and server_kv; an optional second one is the --jobs
# value (default 4), and any value must give the same hashes. Hashes stand
# in for the outputs themselves: the fig07 trace and OpenMetrics files are
# megabytes each.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 BENCH_DIR [JOBS]" >&2
  exit 2
fi
bench="$(cd "$1" && pwd)"
jobs="${2:-4}"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
cd "$out"

# fig07 without a window: one whole-run window per cell.
"$bench/fig07_contention" --fast --jobs="$jobs" --trace=fig07.trace.json \
  --abort-report=fig07.abort-report.txt --perf-stat=fig07.perf-stat.txt \
  > /dev/null 2>&1

# fig07 with a 5000-cycle window: window deltas and boundary snapshots.
"$bench/fig07_contention" --fast --jobs="$jobs" --metrics-window=5000 \
  --metrics=fig07.w5000.prom --flamegraph=fig07.w5000.folded \
  --timeseries=fig07.w5000.timeseries.csv \
  --perf-stat=fig07.w5000.perf-stat.txt --manifest=fig07.w5000.manifest.json \
  --trace=fig07.w5000.trace.raw.json > /dev/null 2>&1
grep -o '"\(counter\|metrics\)_digest": "0x[0-9a-f]*"' \
  fig07.w5000.manifest.json > fig07.w5000.digests.txt
grep -v '"name":"machine counters"' fig07.w5000.trace.raw.json \
  > fig07.w5000.trace.json

# Lock elision and a server service. The flame profile runs on its own:
# asking for it turns on a window, which adds snapshot lines to perf-stat.
for bin in extension_elision server_kv; do
  "$bench/$bin" --fast --jobs="$jobs" --perf-stat="$bin.perf-stat.txt" \
    --abort-report="$bin.abort-report.txt" > /dev/null 2>&1
  "$bench/$bin" --fast --jobs="$jobs" --flamegraph="$bin.folded" > /dev/null 2>&1
done

sha256sum \
  fig07.trace.json fig07.abort-report.txt fig07.perf-stat.txt \
  fig07.w5000.prom fig07.w5000.folded fig07.w5000.timeseries.csv \
  fig07.w5000.perf-stat.txt fig07.w5000.digests.txt fig07.w5000.trace.json \
  extension_elision.perf-stat.txt extension_elision.abort-report.txt \
  extension_elision.folded \
  server_kv.perf-stat.txt server_kv.abort-report.txt server_kv.folded
