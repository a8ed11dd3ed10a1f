#!/usr/bin/env python3
"""Summarise or compare sets of tsxlab benchmark runs (standard library only).

Each set is a file, or a directory of *.jsonl / *.json files, holding the
lines that `benchmark/run.sh --out FILE` appends, one run per line.

  compare.py SET
      Per workload and metric: run count, median, quartiles and the spread
      (IQR / median) against the metric's bound in BENCHMARK.json.

  compare.py BASE HEAD
      Per workload and metric: both sides' median and quartiles, the share
      of pairs the head side won, and a verdict:
        gain        head won at least 9/10 of the pairs and the medians
                    differ by more than the base side's IQR;
        regression  head's median is worse than base's by more than the
                    metric's bound (per-layer metrics, which have no bound:
                    head lost 9/10 of the pairs by more than base's IQR);
        unresolved  neither, but base's own spread is wider than the bound
                    and not every head run beats every base run;
        no change   otherwise.
      Runs pair up by seed. Simulated metrics of runs with equal seeds are
      compared exactly: any difference is a change. Exits 1 on a regression
      or when two runs with one seed disagree on sim_digest.

Quartiles are those of statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GAIN_SHARE = 0.9


def load_set(path):
    files = []
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            if name.endswith((".jsonl", ".json")):
                files.append(os.path.join(path, name))
    else:
        files.append(path)
    runs = []
    for f in files:
        with open(f) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    runs.append(json.loads(line))
    if not runs:
        sys.exit(f"compare.py: no runs in {path}")
    return runs


def load_spec(path):
    with open(path) as fh:
        spec = json.load(fh)
    metrics = {}
    for m in spec.get("end_to_end", []):
        metrics[m["name"]] = (m["better"], m.get("bound"))
    for m in spec.get("per_layer", []):
        metrics[m["name"]] = (m["better"], None)
    return metrics


def group(runs):
    """{(workload, trace): [run, ...]}, in file order."""
    out = {}
    for r in runs:
        key = (r["workload"], r.get("trace", 0))
        out.setdefault(key, []).append(r)
    return out


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def fmt(v):
    return f"{v:.6g}"


def quartile_str(values):
    q1, q2, q3 = quartiles(values)
    return f"{fmt(q2)} [{fmt(q1)}, {fmt(q3)}]"


def better(a, b, direction):
    """True if a is better than b."""
    return a < b if direction == "lower" else a > b


def summarise(runs, spec):
    print(f"{'workload':14} {'metric':34} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}  status")
    for (workload, trace), rs in sorted(group(runs).items()):
        names = list(rs[0]["metrics"])
        for name in names:
            vals = [r["metrics"][name]["value"] for r in rs
                    if name in r["metrics"]]
            q1, q2, q3 = quartiles(vals)
            s = spread(vals)
            bound = spec.get(name, (None, None))[1]
            status = ""
            if bound is not None:
                status = ("ok" if s <= bound / 3 else
                          "within bound" if s <= bound else "TOO WIDE")
            print(f"{workload:14} {name:34} {len(vals):3} {fmt(q2):>12} "
                  f"{fmt(q1):>12} {fmt(q3):>12} {s:8.4f} "
                  f"{'' if bound is None else bound:>6}  {status}")
        seen = {}
        for r in rs:
            if seen.setdefault(r["seed"], r["sim_digest"]) != r["sim_digest"]:
                print(f"{workload:14} sim_digest differs between runs of "
                      f"seed {r['seed']}")


def pairs_of(base, head):
    """Pairs runs by seed; unmatched runs pair up in order."""
    by_seed = {}
    for r in head:
        by_seed.setdefault(r["seed"], []).append(r)
    pairs, rest_b = [], []
    for r in base:
        lst = by_seed.get(r["seed"])
        if lst:
            pairs.append((r, lst.pop(0), True))
        else:
            rest_b.append(r)
    rest_h = [r for lst in by_seed.values() for r in lst]
    pairs += [(b, h, False) for b, h in zip(rest_b, rest_h)]
    return pairs


def verdict(name, kind, direction, bound, pairs):
    bv = [b["metrics"][name]["value"] for b, _, _ in pairs]
    hv = [h["metrics"][name]["value"] for _, h, _ in pairs]
    won = sum(better(h, b, direction) for b, h in zip(bv, hv))
    lost = sum(better(b, h, direction) for b, h in zip(bv, hv))
    n = len(pairs)
    if kind == "sim" and all(same for _, _, same in pairs):
        if all(b == h for b, h in zip(bv, hv)):
            return won, "no change"
        if lost == 0:
            return won, "gain"
        return won, "regression" if won == 0 else "unresolved"
    bq1, bmed, bq3 = quartiles(bv)
    _, hmed, _ = quartiles(hv)
    iqr = bq3 - bq1
    gap = abs(hmed - bmed)
    if won >= GAIN_SHARE * n and better(hmed, bmed, direction) and gap > iqr:
        return won, "gain"
    worse = better(bmed, hmed, direction)
    if bound is None:
        if lost >= GAIN_SHARE * n and worse and gap > iqr:
            return won, "regression"
        return won, "no change"
    if worse and bmed and gap / abs(bmed) > bound:
        return won, "regression"
    all_better = all(better(h, b, direction) for h in hv for b in bv)
    if bmed and iqr / abs(bmed) > bound and not all_better:
        return won, "unresolved"
    return won, "no change"


def compare(base_runs, head_runs, spec):
    failed = False
    bg, hg = group(base_runs), group(head_runs)
    print(f"{'workload':14} {'metric':34} {'base median [q1, q3]':>34} "
          f"{'head median [q1, q3]':>34} {'won':>7}  verdict")
    for key in sorted(set(bg) & set(hg)):
        workload, trace = key
        pairs = pairs_of(bg[key], hg[key])
        for b, h, same in pairs:
            if same and b["sim_digest"] != h["sim_digest"]:
                print(f"{workload:14} sim_digest differs at seed {b['seed']}: "
                      f"{b['sim_digest']} vs {h['sim_digest']}")
                failed = True
        for name, m in bg[key][0]["metrics"].items():
            if not all(name in h["metrics"] for _, h, _ in pairs):
                continue
            direction, bound = spec.get(name, ("lower", None))
            won, v = verdict(name, m.get("kind", "host"), direction, bound,
                             pairs)
            base = quartile_str([b["metrics"][name]["value"]
                                 for b, _, _ in pairs])
            head = quartile_str([h["metrics"][name]["value"]
                                 for _, h, _ in pairs])
            print(f"{workload:14} {name:34} {base:>34} {head:>34} "
                  f"{str(won) + '/' + str(len(pairs)):>7}  {v}")
            failed = failed or v == "regression"
    for key in sorted(set(bg) ^ set(hg)):
        print(f"{key[0]} (trace {key[1]}): only in one set")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("sets", nargs="+", metavar="SET",
                    help="one set to summarise, or BASE HEAD to compare")
    ap.add_argument("--bench", default=os.path.join(HERE, "..",
                                                    "BENCHMARK.json"),
                    help="benchmark definition with directions and bounds")
    args = ap.parse_args()
    if len(args.sets) > 2:
        ap.error("give one set, or two to compare")
    spec = load_spec(args.bench)
    if len(args.sets) == 1:
        summarise(load_set(args.sets[0]), spec)
        return 0
    return compare(load_set(args.sets[0]), load_set(args.sets[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
