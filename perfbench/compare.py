#!/usr/bin/env python3
"""Compares two benchmark result sets, or summarizes one.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl
    python3 perfbench/compare.py --summary RUNS.jsonl
    python3 perfbench/compare.py --baseline RUNS.jsonl   # JSON medians

--summary prints each metric's median, quartiles and spread (interquartile
range over median) and flags it "ok" within a third of its bound, "above-aim"
within the bound and "WIDE" beyond it. It exits 1 if a spread is WIDE or a
run failed. --baseline prints the medians and quartiles as JSON,
the form perfbench/baseline.json records.

A result set is the JSONL file `perfbench/run.py --collect` writes: one
record per run, {"workload", "seed", "trace", "exit", "result"}. A run
failed when it exited non-zero or reported correct=false.

Comparison rules, per workload row and end-to-end metric, with the
metric's bound from BENCHMARK.json:
  failed      the change has more failed runs of the workload than the base;
              no metric is compared, since the surviving runs would hide the
              wrong answers
  improved    the change wins at least 9/10 of the runs paired by seed (ties
              count for neither) and the medians differ by more than the
              base's interquartile range
  unresolved  otherwise, when either side's spread (interquartile range over
              median) is wider than the bound
  worse       otherwise, when the change's median is worse than the base's by
              more than the bound
  unchanged   otherwise
Otherwise a row is worse if any metric is, else unresolved if any is, else improved
if any is, else unchanged. compare exits 1 when a row is failed or worse.
Per-layer metrics (traced runs) have no bound; their medians are printed
side by side.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark(path):
    with open(path) as f:
        return json.load(f)


def load_runs(path):
    """Returns ({(workload, trace): {seed: metrics}},
    {(workload, trace): [failed run labels]})."""
    runs, failed = {}, {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            result = record.get("result") or {}
            key = (record["workload"], record["trace"])
            if record.get("exit") != 0 or not result.get("correct"):
                failed.setdefault(key, []).append(
                    "%s seed %s trace %s exit %s" % (
                        key[0], record["seed"], key[1], record.get("exit")))
                continue
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs.setdefault(key, {})[record["seed"]] = metrics
    return runs, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def verdict(base, change, metric):
    """Verdict for one metric: base and change map seed -> value."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    a, b = list(base.values()), list(change.values())
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1a, _, q3a = quartiles(a)
    pairs = [(base[s], change[s]) for s in base if s in change]
    if not pairs:  # no common seeds: pair runs in order
        pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3a - q1a:
        return "improved"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    worse_by = ((med_b - med_a) if lower else (med_a - med_b)) / med_a
    return "worse" if worse_by > bound else "unchanged"


def row_verdict(verdicts):
    for v in ("failed", "worse", "unresolved", "improved"):
        if v in verdicts:
            return v
    return "unchanged"


def compare(bench, base_path, change_path):
    base, base_failed = load_runs(base_path)
    change, change_failed = load_runs(change_path)
    for label in sum(base_failed.values(), []):
        print("base run failed: " + label)
    for label in sum(change_failed.values(), []):
        print("change run failed: " + label)
    worst = "unchanged"
    for w in [w["name"] for w in bench["workloads"]]:
        failed_a = len(base_failed.get((w, 0), []))
        failed_b = len(change_failed.get((w, 0), []))
        if failed_b > failed_a:
            print("%s: failed (%d failed runs, base %d)" % (w, failed_b,
                                                           failed_a))
            worst = row_verdict([worst, "failed"])
            continue
        a, b = base.get((w, 0)), change.get((w, 0))
        if not a or not b:
            print("%s: unresolved (no untraced runs on one side)" % w)
            worst = row_verdict([worst, "unresolved"])
            continue
        cells = []
        for metric in bench["end_to_end"]:
            name = metric["name"]
            va = {s: m[name] for s, m in a.items()}
            vb = {s: m[name] for s, m in b.items()}
            v = verdict(va, vb, metric)
            cells.append(v)
            qa, qb = quartiles(list(va.values())), quartiles(list(vb.values()))
            print("  %-15s %-12s base %.6g [%.6g, %.6g]  change %.6g "
                  "[%.6g, %.6g]  %+.1f%%  bound %.0f%%  %s" % (
                      w, name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
                      100.0 * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0,
                      100.0 * metric["bound"], v))
        row = row_verdict(cells)
        worst = row_verdict([worst, row])
        print("%s: %s" % (w, row))
        ta, tb = base.get((w, 1)), change.get((w, 1))
        if ta and tb:
            for metric in bench["per_layer"]:
                name = metric["name"]
                ma = statistics.median(m[name] for m in ta.values())
                mb = statistics.median(m[name] for m in tb.values())
                if ma or mb:
                    print("    layer %-24s base %.6g  change %.6g %s" % (
                        name, ma, mb, metric["unit"]))
    print("overall: %s" % worst)
    return 1 if worst in ("failed", "worse") else 0


def summary(bench, path):
    runs, failed = load_runs(path)
    for label in sum(failed.values(), []):
        print("failed run, left out: " + label)
    ok = not failed
    for w in [w["name"] for w in bench["workloads"]]:
        for trace, metrics in ((0, bench["end_to_end"]),
                               (1, bench["per_layer"])):
            sets = runs.get((w, trace))
            if not sets:
                continue
            for metric in metrics:
                values = [m[metric["name"]] for m in sets.values()]
                q1, q2, q3 = quartiles(values)
                if trace == 1:
                    if q2:
                        print("  %-15s %-24s n=%d median %.6g [%.6g, %.6g] "
                              "%s" % (w, metric["name"], len(values), q2, q1,
                                      q3, metric["unit"]))
                    continue
                s = spread(values)
                target = metric["bound"] / 3
                flag = ("ok" if s <= target else
                        "above-aim" if s <= metric["bound"] else "WIDE")
                if flag == "WIDE":
                    ok = False
                print("  %-15s %-12s n=%d median %.6g [%.6g, %.6g] spread "
                      "%.1f%% (bound %.0f%%, target %.1f%%) %s" % (
                          w, metric["name"], len(values), q2, q1, q3,
                          100 * s, 100 * metric["bound"], 100 * target, flag))
    return 0 if ok else 1


def baseline(bench, path):
    runs, _ = load_runs(path)
    out = {}
    for w in [w["name"] for w in bench["workloads"]]:
        for trace, metrics in ((0, bench["end_to_end"]),
                               (1, bench["per_layer"])):
            sets = runs.get((w, trace))
            if not sets:
                continue
            for metric in metrics:
                values = [m[metric["name"]] for m in sets.values()]
                q1, q2, q3 = quartiles(values)
                if trace == 1 and not q2:
                    continue
                out.setdefault(w, {})[metric["name"]] = {
                    "median": float("%.6g" % q2), "q1": float("%.6g" % q1),
                    "q3": float("%.6g" % q3), "runs": len(values),
                    "unit": metric["unit"]}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--summary", action="store_true")
    parser.add_argument("--baseline", action="store_true")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    bench = load_benchmark(args.benchmark)
    if args.summary:
        return max(summary(bench, path) for path in args.files)
    if args.baseline:
        return baseline(bench, args.files[0])
    if len(args.files) != 2:
        parser.error("give BASE.jsonl and CHANGE.jsonl, or --summary FILE")
    return compare(bench, args.files[0], args.files[1])


if __name__ == "__main__":
    sys.exit(main())
