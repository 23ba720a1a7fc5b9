#!/usr/bin/env python3
"""Compares hopsbench result sets against BENCHMARK.json's bounds.

A result set is a directory of result JSON files as run.py --save-dir writes
them (one per workload and seed), searched recursively; traced runs are
skipped. For every workload and end-to-end metric the report gives each
set's median and quartiles (statistics.quantiles, n=4) and its spread, the
interquartile distance as a share of the median.

With one set, a metric is "steady" when its spread is at most a third of
its bound and "noisy" when it exceeds the bound. With two sets (A =
baseline, B = candidate) the verdict compares B's median with A's in the
metric's "worse" direction:
"regression" when worse by more than the bound, "unresolved" when either
set's spread exceeds the bound (unless every B run beats every A run),
otherwise "within bound" (or "better" when better by more than the bound).

  python3 bench/hopsbench/compare.py A_DIR [B_DIR] [--out REPORT.md]

Exits 1 when any metric is a regression, unresolved or noisy.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load_set(path):
    """{workload: [result, ...]} for the untraced results under `path`."""
    runs = {}
    for name in sorted(glob.glob(os.path.join(path, "**", "*.json"), recursive=True)):
        with open(name) as f:
            result = json.load(f)
        if result.get("trace"):
            continue
        runs.setdefault(result["workload"], []).append(result)
    return runs


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def fmt(v):
    return "%.4g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("sets", nargs="+", help="one or two result directories")
    ap.add_argument("--out", help="also write the report here")
    args = ap.parse_args()
    if len(args.sets) > 2:
        ap.error("at most two result sets")

    with open(BENCH) as f:
        metrics = json.load(f)["end_to_end"]
    sets = [load_set(p) for p in args.sets]
    two = len(sets) == 2
    lines = ["# hopsbench comparison", ""]
    lines.append("Sets: " + ", ".join("%s = `%s`" % ("AB"[i], p) for i, p in enumerate(args.sets)))
    lines.append("")
    header = ["workload", "metric", "bound"]
    for tag in ("A", "B")[:len(sets)]:
        header += ["%s n" % tag, "%s median" % tag, "%s q1..q3" % tag, "%s spread" % tag]
    if two:
        header.append("B vs A")
    header.append("verdict")
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))

    bad = 0
    workloads = sorted(set().union(*[s.keys() for s in sets]))
    for w in workloads:
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            row = [w, name, "%.0f%%" % (bound * 100)]
            summaries = []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s.get(w, [])]
                if not values:
                    row += ["0", "-", "-", "-"]
                    summaries.append(None)
                    continue
                med, q1, q3, spread = stats(values)
                samples = [r["metrics"][name].get("samples") for r in s[w]]
                n = "%d" % len(values)
                if samples[0] is not None:
                    n += " (>=%d samples)" % min(samples)
                row += [n, fmt(med), "%s..%s" % (fmt(q1), fmt(q3)), "%.1f%%" % (spread * 100)]
                summaries.append((med, spread, values))
            if any(x is None for x in summaries):
                verdict = "missing"
            elif not two:
                _, spread, _ = summaries[0]
                if spread <= bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "within bound"
                else:
                    verdict = "NOISY"
            else:
                (ma, sa, va), (mb, sb, vb) = summaries
                worse = (mb - ma) / ma if lower else (ma - mb) / ma
                row.append("%.1f%% %s" % (abs(worse) * 100, "worse" if worse > 0 else "better"))
                all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
                noisy = max(sa, sb) > bound
                if worse > bound:
                    verdict = "REGRESSION"
                elif noisy and not all_better:
                    verdict = "UNRESOLVED"
                elif -worse > bound:
                    verdict = "better"
                else:
                    verdict = "within bound"
            if verdict in ("REGRESSION", "UNRESOLVED", "NOISY", "missing"):
                bad += 1
            row.append(verdict)
            lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    lines.append("%d metric/workload pairs outside their bound." % bad)
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
