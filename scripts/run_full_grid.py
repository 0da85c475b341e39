#!/usr/bin/env python3
"""Run the full verification grid through the CLI and collect a report.

Covers every check on the standard grid p in {2,3,5}, a in {1/2, 1/3, 1/5},
s in {1,2}, n up to 2, with twist constants 1 and 1+q.  Cells outside
their check's hypotheses (p dividing a denominator, too-shallow c) are
skipped: the checker raises PreconditionViolated.

Usage: python3 scripts/run_full_grid.py [report-path]
"""

import sys

from padichg.cli import SuiteConfig, run_suite
from fractions import Fraction


def main() -> int:
    out = sys.argv[1] if len(sys.argv) > 1 else "full_grid_report.jsonl"
    config = SuiteConfig(
        p_list=[2, 3, 5],
        n_list=[1, 2],
        a_list=[Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)],
        s_list=[1, 2],
        c_list=[Fraction(1), Fraction(4), Fraction(6)],
        checks=[
            "dwork", "log", "hat", "dwork-transform", "braced",
            "beta-pairing", "section-sums", "main-congruence",
            "ratio-identity", "integrality", "interpolation",
        ],
        out=out,
        jobs=4,
    )
    status = run_suite(config)
    print(f"report written to {out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
