#!/usr/bin/env bash
# Checks Fig. 11's table, which fig10_stamp_perf prints after Fig. 10's
# from the same cells, under --energy-split:
#   * the --fast --csv stdout is byte-identical at --jobs 1 and --jobs 4,
#     the four wasted-energy columns included;
#   * the flag only appends those columns: Fig. 10's part of the stdout is
#     the default run's, and Fig. 11's CSV rows cut to their first six
#     columns are the default run's rows.
# tests/determinism.sh covers the default stdout and the exporters; ctest
# runs this one as determinism.fig11_stamp_energy. By hand:
#
#   tests/fig11_energy_split.sh build/bench/fig10_stamp_perf
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 FIG10_DRIVER" >&2
  exit 2
fi
driver="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
cd "$out"

fail() {
  echo "FAIL Fig. 11 energy split: $*" >&2
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

run split1 --energy-split --jobs=1
run split4 --energy-split --jobs=4
run plain4 --jobs=4
same split1.out split4.out

# Fig. 10's part: everything before Fig. 11's header.
for tag in split4 plain4; do
  sed '/^==== Fig. 11:/,$d' "$tag.out" > "$tag.fig10"
  sed -n '/^==== Fig. 11:/,$p' "$tag.out" | sed -n '/^CSV:$/,$p' \
    > "$tag.fig11.csv"
done
same plain4.fig10 split4.fig10

header="app,system,1t,2t,4t,8t"
wasted="1t-wasted,2t-wasted,4t-wasted,8t-wasted"
grep -qx "$header" plain4.fig11.csv || fail "no default Fig. 11 CSV header"
grep -qx "$header,$wasted" split4.fig11.csv ||
  fail "no wasted-energy columns in Fig. 11's CSV header"
cut -d, -f1-6 split4.fig11.csv > split4.fig11.cut.csv
same plain4.fig11.csv split4.fig11.cut.csv

rows="$(grep -c , split4.fig11.csv)"
echo "OK Fig. 11 energy split: $((rows - 1)) rows identical at --jobs 1" \
  "and 4; the flag only appends the wasted-energy columns"
