#!/usr/bin/env python3
"""Steadiness check of the benchmark itself.

Usage: python3 perfbench/steady.py [--workloads grid deep tables]
           [--seeds 10] [--sets 1] [--traces 2]

For each set and workload, runs perfbench/run.py untraced once per seed
(seeds 1..N) for BENCHMARK.json's run_seconds.  For every end-to-end
metric it prints the median and the quartile spread, (Q3 - Q1) / median
with Python's statistics.quantiles(n=4), against the metric's bound: a
spread at or above the bound fails (setup_s is exempt), and one above a
third of it is flagged.  With two or more sets, a later set's median may
not be worse than the first set's by more than the bound.  Then, per
workload, it runs the traced benchmark --traces times on seed 1 and
requires every work count (unit count or B) to repeat exactly.
Exits 1 if any requirement fails.  A summary goes to .perfbench/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=200)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        print(proc.stdout, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed")
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--traces", type=int, default=2)
    args = parser.parse_args()

    ok = True
    summary: dict = {}
    for set_index in range(args.sets):
        for workload in args.workloads:
            runs = [bench(workload, seed, spec["run_seconds"], 0)
                    for seed in range(1, args.seeds + 1)]
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                entry = summary.setdefault(f"{workload}.{name}",
                                           {"values": [], "medians": [], "spreads": []})
                entry["values"].append(values)
                entry["medians"].append(med)
                entry["spreads"].append(spread)
                verdict = "ok"
                if name != "setup_s" and spread >= bound:
                    verdict, ok = "FAIL spread", False
                elif spread > bound / 3:
                    verdict = "wide"
                worse = (med - entry["medians"][0]) / entry["medians"][0]
                if metric["better"] == "higher":
                    worse = -worse
                if worse > bound:
                    verdict, ok = "FAIL drift", False
                print(f"set {set_index + 1} {workload:<7}{name:<12} median {med:10.4f}  "
                      f"spread {spread:6.3f}  bound {bound}  vs set 1 {worse:+.3f}  {verdict}",
                      flush=True)

    for workload in args.workloads if args.traces else ():
        counts = []
        for _ in range(args.traces):
            metrics = bench(workload, 1, spec["run_seconds"], 1)["metrics"]
            counts.append({k: v["value"] for k, v in metrics.items()
                           if v["unit"] in ("count", "B")})
        same = all(c == counts[0] for c in counts)
        ok = ok and same
        summary[f"{workload}.counts"] = counts
        print(f"{workload:<7} work counts {'repeat' if same else 'DIFFER'} over "
              f"{args.traces} traced runs: {counts[0]}", flush=True)

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
