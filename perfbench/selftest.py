#!/usr/bin/env python3
"""Self-test of the output check: it cannot pass vacuously.

Usage: python3 perfbench/selftest.py

Runs one untraced iteration of grid and of tables (about 30 s), then
judges the real outputs against the recorded expected values: as recorded
(no failures), with one deciding value corrupted (the run fails), and with
changes the check must tolerate (a duplicate report line dropped, a report
field added).  Exits 1 on the first assertion that does not hold.
"""

import copy
import json
import os
import sys

import run
import workloads


def outputs(name: str, seed: int) -> tuple[dict, dict, list[str]]:
    expected = run.load_expected(name)
    specs = [workloads.spec(*picked) for picked in workloads.pick(name, seed)]
    workdir = os.path.join(run.ROOT, ".perfbench", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = run.spawn(name, seed, workdir, "run", run.HARD_LIMIT_S)
    finally:
        for fname in os.listdir(workdir):
            os.remove(os.path.join(workdir, fname))
        os.rmdir(workdir)
    if "error" in result:
        raise SystemExit(f"{name}: {result['error']}")
    return result, expected, specs


def check(label: str, got: tuple, want_failed) -> None:
    attempted, failed, _ = got
    ok = attempted > 0 and (failed == want_failed if isinstance(want_failed, int)
                            else want_failed(failed, attempted))
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {failed} of {attempted} failed")
    if not ok:
        raise SystemExit(1)


def main() -> int:
    result, expected, specs = outputs("grid", 1)
    check("grid as recorded", run.judge_run(result, expected, specs), 0)

    cells = expected["grid"]["cells"]
    key = sorted(cells)[0]
    for field, value in (("modulus", 99), ("passed", False), ("sign", -1),
                         ("first_failure", {"index": 0})):
        bad = copy.deepcopy(expected)
        bad["grid"]["cells"][key][field] = value
        check(f"grid with {field} corrupted in one cell", run.judge_run(result, bad, specs), 1)

    missing = copy.deepcopy(expected)
    missing["grid"]["cells"]["extra"] = dict(cells[key])
    check("grid with a cell the report lacks", run.judge_run(result, missing, specs), 1)

    tolerant = copy.deepcopy(result)
    lines = tolerant["outputs"]["grid"]["cells"]
    kept = list(dict(lines).items())
    if len(kept) == len(lines):
        raise SystemExit("the grid report has no duplicate lines to drop")
    tolerant["outputs"]["grid"]["cells"] = kept
    check("grid with duplicate lines dropped", run.judge_run(tolerant, expected, specs), 0)

    check_name, params = json.loads(key)
    line = dict(cells[key], check=check_name, params=params, checked=12, guard=3)
    if workloads._cell_entry(line) != [key, cells[key]]:
        raise SystemExit("FAIL an added report field changed a cell")
    print("ok   added report fields are ignored")

    status = copy.deepcopy(result)
    status["outputs"]["grid"]["status"] = 1
    check("grid with exit status 1", run.judge_run(status, expected, specs),
          lambda failed, attempted: failed == attempted)

    result, expected, specs = outputs("tables", 1)
    check("tables as recorded", run.judge_run(result, expected, specs), 0)
    bad = copy.deepcopy(expected)
    bad[specs[2]]["sha256"] = "0" * 64
    check("tables with one digest corrupted", run.judge_run(result, bad, specs),
          expected[specs[2]]["rows"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
