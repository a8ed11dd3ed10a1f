#!/usr/bin/env bash
# Checks that a bench driver's output depends neither on --jobs nor on the
# obs exporters:
#   * the --fast stdout is byte-identical at --jobs 1 and --jobs 4, with
#     every exporter off and with every exporter on;
#   * every exporter's output is byte-identical at --jobs 1 and --jobs 4
#     (manifests compared without their host timings and --jobs value),
#     and the trace and manifest are valid JSON;
#   * each cell traces exactly one run: the trace holds one capture per
#     manifest job, and the manifest carries the obs members;
#   * the driver runs with the driver-specific flags it reads (the FLAGs
#     named after DRIVER) and rejects the others with exit 2.
# ctest runs it once per driver under the `determinism` label; by hand:
#
#   tests/determinism.sh build/bench/fig07_contention
#   tests/determinism.sh build/bench/extension_hle_vs_rtm verify
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 DRIVER [FLAG...]" >&2
  exit 2
fi
driver="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
name="$(basename "$driver")"
shift
reads=" $* "
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
cd "$out"

fail() {
  echo "FAIL $name: $*" >&2
  exit 1
}

# same A B: A and B are byte-identical, else print the start of the diff.
same() {
  diff -u "$1" "$2" > diff.txt || { head -40 diff.txt >&2; fail "$1 != $2"; }
}

# run TAG ARGS...: --fast --csv stdout to TAG.out, stderr to TAG.err.
run() {
  local tag=$1
  shift
  "$driver" --fast --csv "$@" > "$tag.out" 2> "$tag.err" ||
    fail "$tag exited $?: $(tail -1 "$tag.err")"
}

# Every exporter as FLAG:OUTPUT; with_exporters J writes jJ.<OUTPUT>.
exporters="trace:trace.json abort-report:abort.txt perf-stat:perf.txt
  timeseries:timeseries.csv metrics:metrics.prom flamegraph:flame.folded
  manifest:manifest.json"
with_exporters() {
  echo --jobs="$1"
  for e in $exporters; do echo "--${e%%:*}=j$1.${e#*:}"; done
}

run plain1 --jobs=1
run plain4 --jobs=4
run obs1 $(with_exporters 1)
run obs4 $(with_exporters 4)
for tag in plain4 obs1 obs4; do same plain1.out "$tag.out"; done

for j in 1 4; do
  sed -i -e '/"wall_seconds"\|"jobs_flag"/d' \
    -e 's/, "seconds": [0-9.]*}/}/' "j$j.manifest.json"
done
for e in $exporters; do same "j1.${e#*:}" "j4.${e#*:}"; done
for f in j1.trace.json j1.manifest.json; do
  python3 -m json.tool "$f" > /dev/null || fail "$f is not valid JSON"
done

captures="$(sed -n 's/.*wrote \([0-9]*\) capture(s).*/\1/p' obs1.err)"
jobs="$(sed -n 's/.*"total_jobs": \([0-9]*\),/\1/p' j1.manifest.json)"
[ "${captures:-0}" -ge 1 ] || fail "the trace holds no capture"
[ "$captures" = "$jobs" ] ||
  fail "$captures captures for $jobs manifest jobs (one traced run per cell)"
for member in counter_digest metrics_digest heap; do
  grep -q "\"$member\": " j1.manifest.json || fail "manifest lacks $member"
done
[ "$(tail -1 j1.metrics.prom)" = "# EOF" ] || fail "metrics lack '# EOF'"

for flag in verify energy-split; do
  if [[ $reads == *" $flag "* ]]; then
    "$driver" --fast --reps=1 --jobs=4 "--$flag" > /dev/null 2>&1 ||
      fail "--$flag is read, but the run exited $?"
  else
    rc=0
    "$driver" --fast "--$flag" > /dev/null 2>&1 || rc=$?
    [ "$rc" = 2 ] || fail "--$flag is not read, but exited $rc (want 2)"
  fi
done

echo "OK $name: $captures cells; stdout and every exporter identical at" \
  "--jobs 1 and 4"
