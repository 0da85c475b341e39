#!/usr/bin/env python3
"""Record the expected outputs of every job alternative of every workload.

Usage: python3 perfbench/record.py [WORKLOAD ...]

Writes perfbench/expected/<workload>.json: for each alternative's spec,
the exit status and either the deciding fields of every congruence cell
or a table's row count and digest.  Run it only on a commit whose outputs
are known to be right; the benchmark judges later commits against it.
"""

import json
import os
import sys
import tempfile

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def record(name: str, workdir: str) -> dict:
    expected = {}
    for job, a_list, c_list in workloads.jobs_of(name):
        for a, c in sorted({(a, c) for a in a_list for c in c_list}, key=str):
            prepared = workloads.make_job(name, job, a, c, workdir)
            observed = prepared.outputs(prepared.run())
            if "cells" in observed:
                observed["cells"] = dict(observed["cells"])
            expected[prepared.spec] = {k: v for k, v in observed.items()
                                       if k in ("status", "cells", "rows", "sha256")}
            print(f"{name}: {prepared.spec}", file=sys.stderr)
    return expected


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    os.makedirs(os.path.join(HERE, "expected"), exist_ok=True)
    work_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    for name in names:
        with tempfile.TemporaryDirectory(dir=work_root) as workdir:
            expected = record(name, workdir)
        with open(os.path.join(HERE, "expected", f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
