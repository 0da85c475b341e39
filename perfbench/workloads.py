"""The benchmark's workloads: inputs made from a seed, the run itself, and
the outputs each run is judged on.

A workload is a list of jobs.  A job is one congruence cell (or the whole
standard grid) or one ``padic-hg table`` invocation.  Each job has fixed
lists of admissible a and c values at the same (p, n, s, count); the seed
picks from them, so every seed has the same shape of work.  The expected
outputs of every (a, c) of every job are recorded in ``expected/``.

padichg is imported inside ``build``, so that a worker's set-up time
covers the import.
"""

from __future__ import annotations

import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("grid", "deep", "tables")

# The standard grid of scripts/run_full_grid.py, run serially.  The seed
# does not change it.
GRID = {
    "p_list": [2, 3, 5],
    "n_list": [1, 2],
    "a_list": ["1/2", "1/3", "1/5"],
    "s_list": [1, 2],
    "c_list": ["1", "4", "6"],
    "checks": [
        "dwork", "log", "hat", "dwork-transform", "braced",
        "beta-pairing", "section-sums", "main-congruence",
        "ratio-identity", "integrality", "interpolation",
    ],
}

# c values at p = 3, all with v_3(c - 1) = 1, whose cells and tables cost
# the same within a few percent.  Others do not: c - 1 = +-6 cancels the
# powers of 2 in the binomials of the hat cell's c^alpha series, making it
# about a quarter cheaper, and c = 7 or -5 more than doubles the B table.
P3_C = ["4", "-2", "16"]

# deep: four single large cells at p = 3 through the verify API.
# Per job: (job, a values, c values).  a = 1/2 at every seed: at p = 3 it
# is the only admissible a that is its own Dwork prime, and any other a
# adds a second coefficient table, which is more work, not other inputs.
# Each n is one below the n at which these cells take a few seconds each
# (7 and 8): one step of n costs about six times the work, and a 13 s pass
# left two or three timed passes in a run, too few for a steady figure on
# a shared machine.  At these n a pass takes about 2 s, and the series and
# verify layers still carry most of it (65% of a traced pass).
DEEP = [
    ("main-congruence s=1 n=6", ["1/2"], P3_C),
    ("hat s=2 n=6", ["1/2"], P3_C),
    ("log s=2 n=6", ["1/2"], P3_C),
    ("dwork-transform s=2 n=7", ["1/2"], [None]),
]

# tables: six `padic-hg table` invocations in one process.  The second a
# value of every job is 1 - a: the Dwork prime of 1 - a is 1 - a', so the
# swap keeps which tables reuse which cached coefficients.  The lambda
# points are nonnegative because argparse reads "--points -3/2" as a flag.
TABLES = [
    ("--kind A --a {a} --p 5 --count 15625 --prec 7", ["2/3", "1/3"], [None]),
    ("--kind A --a {a} --s 2 --p 2 --count 16384 --prec 14", ["1/3", "2/3"], [None]),
    ("--kind B --a {a} --p 3 --c {c} --count 6561 --prec 8", ["1/2", "1/2"], P3_C),
    ("--kind Bhat --a {a} --s 2 --p 5 --c {c} --count 3125 --prec 6", ["1/3", "2/3"],
     ["6", "11", "-4", "-9"]),
    ("--kind beta --a {a} --p 3 --c {c} --points 0 1 2 1/2 --prec 9", ["1/2", "1/2"], P3_C),
    ("--kind beta --a {a} --p 2 --c {c} --points 0 1 2 1/3 --prec 14", ["1/3", "2/3"],
     ["5", "-3", "13", "-11"]),
]


def jobs_of(name: str) -> list[tuple[str, list, list]]:
    """(job, a values, c values) of a workload, in run order."""
    if name == "grid":
        return [("grid", [None], [None])]
    if name == "deep":
        return DEEP
    if name == "tables":
        return TABLES
    raise ValueError(f"unknown workload {name!r}")


def pick(name: str, seed: int) -> list[tuple[str, object, object]]:
    """(job, a, c) per job for this seed; the same seed gives the same picks.

    One draw picks the position in every job's a list, so that jobs which
    share coefficients keep sharing them; c is drawn per job."""
    rng = random.Random(f"{name}:{seed}")
    jobs = jobs_of(name)
    ia = rng.randrange(len(jobs[0][1]))
    return [(job, a_list[ia], c_list[rng.randrange(len(c_list))])
            for job, a_list, c_list in jobs]


def spec(job: str, a, c) -> str:
    """The name of one job alternative, under which its expected outputs are stored."""
    if job.startswith("--kind"):
        return job.format(a=a, c=c)
    if a is None:
        return job
    return f"{job} a={a}" + ("" if c is None else f" c={c}")


@dataclass
class Job:
    """One prepared job: ``run`` does the work, ``outputs`` reads what it produced."""

    spec: str
    run: Callable[[], object]
    outputs: Callable[[object], dict]


def build(name: str, seed: int, workdir: str) -> list[Job]:
    """Import padichg and prepare every job of the workload: the set-up phase."""
    return [make_job(name, job, a, c, workdir) for job, a, c in pick(name, seed)]


def make_job(name: str, job: str, a, c, workdir: str) -> Job:
    """Prepare one job alternative; its outputs go under workdir."""
    from fractions import Fraction

    from padichg import cli, verify
    from padichg.hyper import FrobeniusSpec, HGParams

    # Every run function looks padichg's entry points up when called, so
    # that the tracer's wrappers, installed after set-up, apply.
    key = spec(job, a, c)
    if name == "grid":
        out = os.path.join(workdir, "grid.jsonl")
        config = cli.SuiteConfig(
            p_list=GRID["p_list"], n_list=GRID["n_list"],
            a_list=[Fraction(v) for v in GRID["a_list"]], s_list=GRID["s_list"],
            c_list=[Fraction(v) for v in GRID["c_list"]], checks=GRID["checks"],
            out=out, jobs=1)
        # The summary goes to memory; the report goes to config.out.
        return Job(key, lambda: cli.run_suite(config, io.StringIO()), _report_reader(out))
    if name == "deep":
        check, s, n = job.split()[0], *(int(part.split("=")[1]) for part in job.split()[1:])
        params = HGParams.create(Fraction(a), s, 3)
        if check == "main-congruence":
            c_value = Fraction(c)
            run = lambda: verify.check_main_congruence(params, c_value, n)
        elif check in ("hat", "log"):
            frob = FrobeniusSpec(Fraction(c))
            run = lambda: verify.check_congruence_relation(check, params, frob, n)
        else:
            run = lambda: verify.check_dwork_transformation(params, n)
        return Job(key, run, _cell_reader)
    out = os.path.join(workdir, "".join(ch if ch.isalnum() else "_" for ch in key) + ".jsonl")
    argv = ["table"] + key.split() + ["--out", out]
    return Job(key, lambda: cli.main(argv), _table_reader(out))


# ---------------------------------------------------------------------------
# outputs: what decides a result, keyed so that added report fields or a
# dropped duplicate line still match

CELL_FIELDS = ("passed", "modulus", "sign", "first_failure")


def cell_key(line: dict) -> str:
    return json.dumps([line.get("check"), line.get("params")], sort_keys=True)


def _cell_entry(line: dict) -> list:
    return [cell_key(line), {f: line.get(f) for f in CELL_FIELDS}]


def _report_reader(path: str):
    def read(status) -> dict:
        with open(path, "rb") as fh:
            raw = fh.read()
        lines = [json.loads(text) for text in raw.decode("utf-8").splitlines() if text]
        seen: set[str] = set()
        dup = 0
        for line in lines:
            key = cell_key(line)
            dup += key in seen
            seen.add(key)
        return {"status": status, "cells": [_cell_entry(line) for line in lines],
                "report_bytes": len(raw), "dup_cells": dup}
    return read


def _cell_reader(report) -> dict:
    return {"status": 0, "cells": [_cell_entry(json.loads(report.to_json()))]}


def _table_reader(path: str):
    def read(status) -> dict:
        import hashlib

        with open(path, "rb") as fh:
            raw = fh.read()
        rows = [json.loads(text) for text in raw.decode("utf-8").splitlines() if text]
        decided = [[row.get("k", row.get("lambda")), row.get("residue"), row.get("prec")]
                   for row in rows]
        digest = hashlib.sha256(json.dumps(decided).encode()).hexdigest()
        return {"status": status, "rows": len(rows), "sha256": digest,
                "report_bytes": len(raw)}
    return read


# ---------------------------------------------------------------------------
# the output check


def judge(observed: dict, expected: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) for one job's observed outputs.

    Congruence cells count one each, keyed by (check, params); a missing,
    unexpected or differing cell fails.  A table counts one per expected
    row, and all of them fail when its row count or digest differs.  A
    wrong exit status or an exception fails every item of the job."""
    if "cells" in expected:
        want = expected["cells"]
        got: dict[str, list] = {}
        for key, fields in observed.get("cells", []):
            got.setdefault(key, []).append(fields)
        keys = set(want) | set(got)
        if observed.get("status") != expected["status"]:
            return len(keys), len(keys), [f"status {observed.get('status')!r}"]
        bad = sorted(k for k in keys if k not in want or k not in got
                     or any(fields != want[k] for fields in got[k]))
        return len(keys), len(bad), [f"cell {k}" for k in bad[:5]]
    rows = max(expected["rows"], 1)
    same = all(observed.get(f) == expected[f] for f in ("status", "rows", "sha256"))
    return rows, 0 if same else rows, [] if same else [
        f"table status={observed.get('status')!r} rows={observed.get('rows')!r}"]
