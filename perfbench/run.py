#!/usr/bin/env python3
"""padichg benchmark: end-to-end metrics per workload, per-layer metrics on request.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload grid|deep|tables|all --seed N \
        --seconds S --trace 0|1

Load model: one client in a closed loop.  Each iteration is a fresh
interpreter (perfbench/worker.py) that imports padichg from ``src/``,
builds the workload's inputs and runs every job serially, so caches are
never warm.  Iterations repeat while the next one is expected to end
within ``--seconds``; there is always at least one.  Three more
interpreters only set up before the first iteration and after each,
until the run holds 24 set-up times, so that set-up time has enough
samples.

With ``--trace 0`` the last line reports wall_s (the mean over the
iterations), setup_s and peak_rss_mb (medians).  With ``--trace 1`` the first iteration
runs under perfbench/tracer.py and the last line reports the per-layer
metrics; the untraced iterations after it give trace.overhead_s.  Every
iteration's outputs are checked against perfbench/expected/; the exit
status is 1 if any check fails and 2 if the benchmark cannot run.
A record with the environment and every sample goes to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 3  # before the first iteration and after each
SETUP_SAMPLES = 24  # no more probes once a run holds this many set-up times
# A run must end within 180 s whatever --seconds says.
HARD_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# wall_s is the mean over a run's iterations: on a shared machine their
# times fall in a fast and a slow band, and the median of a run flips
# between the bands where the mean does not.  The others are medians.
STATISTIC = {"wall_s": statistics.fmean, "setup_s": statistics.median,
             "peak_rss_mb": statistics.median}
PER_LAYER_UNITS = {"self_s": "s", "calls": "count", "coeff_terms": "count",
                   "cache_terms": "count", "mul_terms": "count",
                   "report_bytes": "B", "dup_cells": "count", "overhead_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_expected(name: str) -> dict:
    path = os.path.join(HERE, "expected", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def spawn(name: str, seed: int, workdir: str, mode: str, timeout: float) -> dict:
    """Run one worker to completion; its parsed result, or {"error": ...}."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, name, str(seed),
            workdir, repr(time.monotonic()), mode]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    tail = proc.stderr.strip().splitlines()[-1:] or [""]
    return {"error": f"worker exit {proc.returncode}: {tail[0]}"}


def judge_run(result: dict, expected: dict, specs: list[str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over every job of one iteration."""
    attempted = failed = 0
    notes: list[str] = []
    for spec in specs:
        want = expected[spec]
        got = result.get("outputs", {}).get(spec, {"status": result.get("error", "missing")})
        a, f, n = workloads.judge(got, want)
        attempted, failed = attempted + a, failed + f
        notes += [f"{spec}: {note}" for note in n]
    return attempted, failed, notes


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "padichg")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                src.update(fname.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform(), "git_commit": git_commit(),
            "src_sha256": src.hexdigest(), "seed": seed}


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def summary(key: str, values: list[float]) -> dict:
    return {"value": STATISTIC[key](values), "min": min(values), "max": max(values),
            "n": len(values), "statistic": STATISTIC[key].__name__.lstrip("f")}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Every sample and check of one benchmark run of one workload."""
    expected = load_expected(name)
    specs = [workloads.spec(*picked) for picked in workloads.pick(name, seed)]
    unknown = [spec for spec in specs if spec not in expected]
    if unknown:
        raise BenchError(f"no expected outputs recorded for {unknown}")
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _measure(name, seed, seconds, trace, expected, specs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(name, seed, seconds, trace, expected, specs, workdir) -> dict:
    start = time.monotonic()
    deadline, hard = start + seconds, start + HARD_LIMIT_S
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "specs": specs, "setup_s": [], "wall_s": [], "peak_rss_mb": [],
              "iteration_s": [], "attempted": 0, "failed": 0, "notes": []}

    def probe_setup() -> None:
        for _ in range(min(SETUP_PROBES, SETUP_SAMPLES - len(record["setup_s"]))):
            probe = spawn(name, seed, workdir, "setup", max(1.0, hard - time.monotonic()))
            if "error" in probe:
                raise BenchError(f"set-up failed: {probe['error']}")
            record["setup_s"].append(probe["setup_s"])

    def iterate(mode: str) -> dict:
        began = time.monotonic()
        result = spawn(name, seed, workdir, mode, max(1.0, hard - began))
        attempted, failed, notes = judge_run(result, expected, specs)
        record["attempted"] += attempted
        record["failed"] += failed
        record["notes"] += notes
        if "error" in result:
            record["notes"].append(result["error"])
            return result
        if mode == "trace":
            record["traced"] = {key: result[key] for key in ("wall_s", "layers", "spans_path")}
            record["traced"]["outputs"] = {
                spec: {k: v for k, v in out.items() if k in ("report_bytes", "dup_cells")}
                for spec, out in result["outputs"].items()}
        else:
            for key in ("setup_s", "wall_s", "peak_rss_mb"):
                record[key].append(result[key])
        # Set-up probes sit between iterations, so that a slow spell of the
        # machine does not fall on all of them.
        probe_setup()
        record["iteration_s"].append(time.monotonic() - began)
        return result

    probe_setup()
    if trace and "error" in iterate("trace"):
        return record
    while "error" not in iterate("run"):
        next_end = time.monotonic() + statistics.median(record["iteration_s"])
        if next_end > min(deadline, hard):
            break
    return record


def metrics(record: dict) -> dict:
    """The reported metrics of one run: end-to-end, or per-layer when traced."""
    if not record["wall_s"] or (record["trace"] and "traced" not in record):
        return {}
    if not record["trace"]:
        return {key: {"value": STATISTIC[key](record[key]), "unit": unit}
                for key, unit in END_TO_END.items()}
    traced = record["traced"]
    layers = dict(traced["layers"] or {})
    layers.pop("missing", None)
    outs = traced["outputs"].values()
    layers["cli.report_bytes"] = sum(o.get("report_bytes", 0) for o in outs)
    layers["cli.dup_cells"] = sum(o.get("dup_cells", 0) for o in outs)
    layers["trace.overhead_s"] = traced["wall_s"] - STATISTIC["wall_s"](record["wall_s"])
    return {key: {"value": value, "unit": PER_LAYER_UNITS[key.split(".", 1)[1]]}
            for key, value in layers.items()}


def report(record: dict, out) -> None:
    """Human-readable lines: every end-to-end metric with spread and sample count."""
    env = record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"python {env['python']}  nproc {env['nproc']}  cpu {env['cpu']}  "
          f"commit {env['git_commit'] or 'none'}  src {env['src_sha256'][:12]}", file=out)
    for key, unit in END_TO_END.items():
        if record[key]:
            s = summary(key, record[key])
            print(f"  {key:<12}{s['value']:>12.4f} {unit:<3} {s['statistic']} of {s['n']}, "
                  f"min {s['min']:.4f}, max {s['max']:.4f}", file=out)
    frac = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"  {'fail_frac':<12}{frac:>12.4f} 1   {record['failed']} of "
          f"{record['attempted']} cells or table rows", file=out)
    if record["trace"]:
        for key, value in record["metrics"].items():
            print(f"  {key:<20}{value['value']:>16.6g} {value['unit']}", file=out)
        missing = record.get("traced", {}).get("layers", {}).get("missing")
        if missing:
            print(f"  not wrapped (absent): {', '.join(missing)}", file=out)
    for note in record["notes"][:10]:
        print(f"  FAILED {note}", file=out)


def save(record: dict) -> None:
    path = os.path.join(ROOT, ".perfbench", "results",
                        f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "padichg", "__init__.py")):
        print(f"error: no padichg sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        record["env"] = environment(args.seed)
        record["metrics"] = metrics(record)
        save(record)
        report(record, sys.stdout)
        records.append(record)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        reported = records[0]["metrics"]
    else:
        reported = {f"{r['workload']}.{key}": value
                    for r in records for key, value in r["metrics"].items()}
    correct = failed == 0 and all(r["metrics"] for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
