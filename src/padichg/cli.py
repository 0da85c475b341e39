"""Command line front end: verification suites and tables.

The `suite` subcommand runs a Cartesian grid of congruence checks and
writes a JSON-lines report: each cell returns its report line, and one key
table layers flag over config file.  A check's runner returns its call
(checker, arguments).  Each triple (p, a, s) is one task, whose cells, at
every check, c and n, start their calls and build their tables together,
each union at its highest precision (`_point_outcomes`); one sort puts the
lines in report order.  `table` emits coefficient tables (A, B, Bhat) or
the interpolated functions at chosen points (beta along sigma, beta-hat
along sigma-hat, with the one constant c).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Callable, Optional, Sequence, TextIO

from .padic import PadicError, PreconditionViolated, parse_rational
from .hyper import (
    FrobeniusSpec,
    HGParams,
    _quotient_calls,
    b_coefficients,
    bhat_coefficients,
    hg_series,
    twist_pair,
)
from .interp import beta_values
from .verify import (
    CheckReport,
    _finish,
    _start,
    check_congruence_relation,
    check_dwork_transformation,
    check_integrality,
    check_main_congruence,
    check_ratio_interpolation,
    sweep_beta_pairing,
    sweep_braced,
    sweep_ratio,
    sweep_section,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

# name -> (runner (params, c, n) -> its call (checker, its arguments),
# whether the check reads c, whether it reads n).  The checker decides which
# cells it accepts.  Each runner looks its checker up by name when called,
# so that a patched module attribute is the one that runs.
CHECKS = {
    "dwork": (lambda P, c, n: (check_congruence_relation, "dwork", P, None, n), False, True),
    "log": (lambda P, c, n: (check_congruence_relation, "log", P, FrobeniusSpec(c), n),
            True, True),
    "hat": (lambda P, c, n: (check_congruence_relation, "hat", P, FrobeniusSpec(c), n),
            True, True),
    "dwork-transform": (lambda P, c, n: (check_dwork_transformation, P, n), False, True),
    "braced": (lambda P, c, n: (sweep_braced, P, n), False, True),
    "beta-pairing": (lambda P, c, n: (sweep_beta_pairing, P, c, n), True, True),
    "section-sums": (lambda P, c, n: (sweep_section, P, n), False, True),
    "main-congruence": (lambda P, c, n: (check_main_congruence, P, c, n), True, True),
    "ratio-identity": (lambda P, c, n: (sweep_ratio, P), False, False),
    "integrality": (lambda P, c, n: (check_integrality, P, c, n), True, True),
    "interpolation": (lambda P, c, n: (check_ratio_interpolation, P, c, n), True, True),
}


class ConfigInvalid(ValueError):
    """The suite configuration failed validation."""


@dataclass
class SuiteConfig:
    """A Cartesian verification grid plus report plumbing."""

    p_list: list[int] = field(default_factory=lambda: [3])
    n_list: list[int] = field(default_factory=lambda: [1])
    a_list: list[Fraction] = field(default_factory=lambda: [Fraction(1, 2)])
    s_list: list[int] = field(default_factory=lambda: [1])
    c_list: list[Fraction] = field(default_factory=lambda: [Fraction(1)])
    checks: list[str] = field(default_factory=list)
    out: Optional[str] = None
    jobs: int = 1

    def validate(self) -> None:
        if not self.checks:
            raise ConfigInvalid("no checks requested")
        for name in self.checks:
            if name not in CHECKS:
                raise ConfigInvalid(f"unknown check {name!r}")
        for group, label in ((self.p_list, "p"), (self.n_list, "n"), (self.s_list, "s")):
            if not group or any(v < 1 for v in group):
                raise ConfigInvalid(f"{label} values must be positive")
        if self.jobs < 1:
            raise ConfigInvalid("jobs must be positive")
        if not self.a_list or not self.c_list:
            raise ConfigInvalid("a and c lists must be nonempty")
        for key, (attr, _, single, _) in _SUITE_KEYS.items():
            values = () if single else getattr(self, attr)
            for i, value in enumerate(values):
                if value in values[:i]:  # the same cells twice
                    raise ConfigInvalid(f"repeated {key} value {value}")


def _attempt(fn: Callable, *args):
    """fn(*args), or the exception it raises: a cell's error is its outcome."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - an error cell, named as its report lines
        return exc


def _point_outcomes(triple: tuple) -> list[Optional[tuple[bool, bool, str]]]:
    """The outcome of each cell (check, n, c) of one task (p, a, s, cells),
    in the order of cells, each run with the HGParams of (p, a, s) or what
    creating them raised: None when the checker raises PreconditionViolated
    (the cell is skipped), otherwise (error, passed, line), line being the
    report's JSON or, for any other exception, an error record.  Every
    cell's call is started (`_start`), their tables, at every n and c, are
    built together where a union serves them (`_quotient_calls`) and each
    step finishes (`_finish`)."""
    p, a, s, cells = triple
    params = _attempt(HGParams.create, a, s, p)
    ran = [params if isinstance(params, Exception) else
           _attempt(_start, *CHECKS[check][0](params, c, n)) for check, n, c in cells]
    waiting = [i for i, got in enumerate(ran) if isinstance(got, tuple)]
    for i, tables in zip(waiting, _quotient_calls([ran[i][1] for i in waiting])):
        ran[i] = _attempt(_finish, *ran[i], tables)
    return [None if isinstance(got, PreconditionViolated) else
            (False, got.passed, got.to_json()) if isinstance(got, CheckReport) else
            (True, False, json.dumps({
                "check": f"congruence-{check}" if check in ("dwork", "log", "hat") else check,
                "params": {"p": str(p), "a": str(a), "s": str(s), "n": str(n), "c": str(c)},
                "passed": False, "error": f"{type(got).__name__}: {got}"}, sort_keys=True))
            for (check, n, c), got in zip(cells, ran)]


def run_suite(config: SuiteConfig, stream: Optional[TextIO] = None) -> int:
    stream = stream if stream is not None else sys.stdout
    config.validate()
    # one task per triple (p, a, s), its cells (check, n, c) by check, c and
    # n; a check that reads no c runs at c = 1 only, one that reads no n at
    # the first n only
    cells = [(check, n, c) for check in config.checks
             for c in (config.c_list if CHECKS[check][1] else [Fraction(1)])
             for n in (config.n_list if CHECKS[check][2] else config.n_list[:1])]
    tasks = [(p, a, s, cells) for p in config.p_list for a in config.a_list
             for s in config.s_list]
    # opened before the first cell, so that a bad path costs no work
    with nullcontext(stream) if config.out is None else open(
            config.out, "w", encoding="utf-8") as fh:
        if config.jobs > 1 and len(tasks) > 1:
            # imported here, not at module level: it is about a quarter of the
            # import time of this module
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=config.jobs) as pool:
                done = list(pool.map(_point_outcomes, tasks))
        else:
            done = list(map(_point_outcomes, tasks))
        rank = {check: k for k, check in enumerate(config.checks)}
        # report lines first, then error lines, each by check, then p, a, s,
        # c, n: the task index, then the cell's place in the task
        ran = sorted((got[0], rank[check], t, i, *got[1:]) for t, outcomes in enumerate(done)
                     for i, ((check, _, _), got) in enumerate(zip(cells, outcomes)) if got)
        fh.write("".join(line + "\n" for *_, line in ran))
    stream.write(f"{'check':<18}{'pass':>6}{'fail':>6}\n")
    for k, name in enumerate(config.checks):
        passed = [ok for _, of, _, _, ok, _ in ran if of == k]
        stream.write(f"{name:<18}{sum(passed):>6}{len(passed) - sum(passed):>6}\n")
    skipped = sum(outcomes.count(None) for outcomes in done)
    if skipped:
        stream.write(f"skipped {skipped} incompatible grid cells\n")
    if skipped == len(cells) * len(tasks):  # nothing was checked
        print("config error: no grid cell meets its check's hypotheses", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_FAIL if any(not ok for *_, ok, _ in ran) else EXIT_PASS


# ---------------------------------------------------------------------------
# tables

TABLE_KINDS = ("A", "B", "Bhat", "beta", "beta-hat")


def emit_table(kind: str, params: HGParams, c: Fraction, count: int, prec: int, fmt: str,
               out: Optional[str] = None, lambdas: Sequence[Fraction] = ()) -> None:
    """A coefficient table of count rows, or beta or beta-hat at each of one
    or more lambdas, written to the path out (stdout for None) once built;
    B and beta twist along sigma, Bhat and beta-hat along sigma-hat."""
    if kind not in TABLE_KINDS:
        raise ConfigInvalid(f"unknown table kind {kind!r}")
    beta = kind.startswith("beta")
    if beta != bool(lambdas):
        raise ValueError(f"kind {kind} needs --points" if beta else
                         f"--points is for kind beta and beta-hat, not {kind}")
    limit = sys.get_int_max_str_digits()  # 0: no limit; at prec > 4 limit even 2^prec is past it
    if limit and (prec > 4 * limit or params.p ** prec > 10 ** limit):
        raise ValueError(f"--prec {prec}: residues mod {params.p}^{prec} can have more than "
                         f"{limit} digits, which Python does not write")
    if not beta and count < 1:
        raise ValueError("count must be positive")
    frob, frob_hat = twist_pair(c)
    if beta:
        hat = kind == "beta-hat"
        rows = "lambda", lambdas, beta_values(lambdas, params, (frob, frob_hat)[hat], prec,
                                              hat=hat)
    else:
        rows = "k", range(count), (hg_series(params, count, prec) if kind == "A" else
                                   b_coefficients(params, frob, count, prec) if kind == "B" else
                                   bhat_coefficients(params, frob_hat, count, prec))
    with nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8") as stream:
        _write_rows(*rows, prec, fmt, stream)


# Rows per write: one `%` over a chunk of rows and one write of the result.
# Measured with Python 3.11 on a 2-vCPU Xeon VM on a 16,384-row JSON table:
# chunks of 1,024 to 4,096 rows write it fastest, 2.4 times as fast as a
# format per row; 64 rows or the whole table in one chunk is 15-30% slower.
_ROWS = 4096


def _write_rows(key: str, keys: Sequence, residues: Sequence[int], prec: int, fmt: str,
                stream: TextIO) -> None:
    """The rows (key, residue, prec), one per key, as JSON lines in the bytes
    of json.dumps(row, sort_keys=True), or as CSV with a header in those of
    csv.writer, which quotes no field here: no key or residue holds a comma,
    a quote or a newline.  Every row has the same prec and a lambda key is
    written as its string."""
    if fmt == "csv":
        stream.write("%s,residue,prec\r\n" % key)
        line = "%%s,%%d,%d\r\n" % prec
    else:
        if key == "lambda":
            keys = [json.dumps(str(lam)) for lam in keys]
        line = '{"%s": %%s, "prec": %d, "residue": %%d}\n' % (key, prec)
    for lo in range(0, len(residues), _ROWS):
        fields = tuple(chain.from_iterable(zip(keys[lo:lo + _ROWS], residues[lo:lo + _ROWS])))
        stream.write(line * (len(fields) // 2) % fields)


# ---------------------------------------------------------------------------
# configuration sources


def _read_config_file(path: str) -> dict[str, str]:
    """Simple `key: value` lines of suite keys; later keys win; '#' starts a comment."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise ConfigInvalid(f"bad config line: {raw.strip()!r}")
            key, val = (part.strip() for part in line.split(":", 1))
            if key not in _SUITE_KEYS:
                raise ConfigInvalid(f"unknown config key {key!r}")
            values[key] = val
    return values


# suite key -> (SuiteConfig field, cast of each value, takes exactly one value,
# help).  The only list of suite keys: the flags and the file read it.
_SUITE_KEYS = {
    "p": ("p_list", int, False, "primes"),
    "n": ("n_list", int, False, "congruence exponents"),
    "a": ("a_list", parse_rational, False, "parameters a as n/d strings"),
    "s": ("s_list", int, False, "multiplicities"),
    "c": ("c_list", parse_rational, False, "Frobenius constants as n/d strings"),
    "check": ("checks", str, False, "checks to run: " + ", ".join(CHECKS)),
    "out": ("out", str, True, "report path (default: stdout)"),
    "jobs": ("jobs", int, True, "worker processes"),
}


def _build_suite_config(args: argparse.Namespace) -> SuiteConfig:
    """Each key from its flag, else the config file, else the default.
    File values are split on whitespace, a flag never is; an empty value
    gives no values."""
    file_values = _read_config_file(args.config) if args.config else {}
    cfg = SuiteConfig()
    for key, (attr, cast, single, _) in _SUITE_KEYS.items():
        flag = getattr(args, key)
        if flag is not None:
            got = flag if isinstance(flag, list) else [flag] if flag != "" else []
        elif key in file_values:
            got = file_values[key].split()
        else:
            continue
        try:
            values = [cast(v) for v in got]
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
        if single:
            if len(values) != 1:
                raise ConfigInvalid(f"{key} takes one value, got {len(values)}")
            values = values[0]
        setattr(cfg, attr, values)
    return cfg


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `padic-hg` parser, built once per process: parsing leaves it
    unchanged, and building it costs about ten parses."""
    parser = argparse.ArgumentParser(
        prog="padic-hg",
        description="p-adic hypergeometric congruence toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    suite = sub.add_parser("suite", help="run a verification grid")
    for key, (_, _, single, text) in _SUITE_KEYS.items():
        suite.add_argument(f"--{key}", nargs=None if single else "+", help=text)
    suite.add_argument("--config", help="key: value config file")

    table = sub.add_parser("table", help="emit a coefficient or beta table")
    table.add_argument("--kind", required=True, choices=TABLE_KINDS)
    table.add_argument("--a", required=True, help="parameter a as n/d")
    table.add_argument("--s", type=int, default=1)
    table.add_argument("--p", type=int, required=True)
    table.add_argument("--c", default="1")
    table.add_argument("--count", type=int, default=10)
    table.add_argument("--points", nargs="+", default=(),
                       help="lambdas for kind=beta and kind=beta-hat")
    table.add_argument("--prec", type=int, default=3)
    table.add_argument("--format", choices=("json", "csv"), default="json")
    table.add_argument("--out", help="output path (default: stdout)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "suite":
            return run_suite(_build_suite_config(args))
        # table, the other subcommand
        params = HGParams.create(parse_rational(args.a), args.s, args.p)
        lambdas = [parse_rational(v) for v in args.points]
        emit_table(args.kind, params, parse_rational(args.c), args.count, args.prec,
                   args.format, args.out, lambdas)
        return EXIT_PASS
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError, PadicError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
