"""Tests for the command line front end."""

import concurrent.futures
import csv
import importlib.util
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from fractions import Fraction
from functools import partial
from unittest.mock import patch

from hypothesis import example, given, settings
from hypothesis import strategies as st

from padichg import (
    FrobeniusSpec,
    HGParams,
    b_coefficients,
    beta_values,
    bhat_coefficients,
    hg_series,
    twist_pair,
)
from padichg import cli, hyper, verify
from padichg.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_PASS,
    CheckReport,
    ConfigInvalid,
    SuiteConfig,
    build_parser,
    main,
    run_suite,
)
from padichg.padic import PreconditionViolated


@pytest.fixture
def digit_limit():
    """Python's default limit of 4,300 digits for writing an int, whatever
    the environment sets."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# a small grid: its lists in any order, any checks in any order, and
# sometimes p = 4, no prime, whose cells are error lines
GRIDS = st.fixed_dictionaries({
    "p_list": st.lists(st.sampled_from([2, 3, 5, 4]), min_size=1, max_size=3, unique=True),
    "a_list": st.lists(st.sampled_from([Fraction(v) for v in "1/2 1/3 2/3 1/4 1 2".split()]),
                       min_size=1, max_size=2, unique=True),
    "s_list": st.lists(st.integers(1, 2), min_size=1, max_size=2, unique=True),
    "c_list": st.lists(st.sampled_from([Fraction(v) for v in "1 4 6 -2 1/5".split()]),
                       min_size=1, max_size=2, unique=True),
    "n_list": st.lists(st.integers(1, 2), min_size=1, max_size=2, unique=True),
    "checks": st.lists(st.sampled_from(list(cli.CHECKS)), min_size=1, max_size=4,
                       unique=True)})


def suite_alone(config):
    """The exit code and the output of the suite of config without --out,
    from each cell's checker run alone (`alone`): the report lines by check,
    then p, a, s, c, n, the error lines in that order after them, then the
    summary."""
    lines, errors, summary, skipped, oks = [], [], [], 0, []
    for check in config.checks:
        _, reads_c, reads_n = cli.CHECKS[check]
        ok = []
        for p, a, s, c, n in itertools.product(
                config.p_list, config.a_list, config.s_list,
                config.c_list if reads_c else [Fraction(1)],
                config.n_list if reads_n else config.n_list[:1]):
            line = alone(check, p, a, s, n, c)
            if line is None:
                skipped += 1
            elif line.startswith("{"):
                lines.append(line)
                ok.append(json.loads(line)["passed"])
            else:
                name = f"congruence-{check}" if check in ("dwork", "log", "hat") else check
                errors.append(json.dumps({"check": name, "params": {
                    "p": str(p), "a": str(a), "s": str(s), "n": str(n), "c": str(c)},
                    "passed": False, "error": line}, sort_keys=True))
                ok.append(False)
        summary.append(f"{check:<18}{sum(ok):>6}{len(ok) - sum(ok):>6}")
        oks += ok
    if skipped:
        summary.append(f"skipped {skipped} incompatible grid cells")
    code = EXIT_CONFIG if not oks else EXIT_PASS if all(oks) else EXIT_FAIL
    return code, "".join(line + "\n" for line in (
        *lines, *errors, f"{'check':<18}{'pass':>6}{'fail':>6}", *summary))


class TestSuite:
    def test_counterexample_grid(self, capsys):
        code, out, _ = run(["suite", "--p", "2", "--a", "1", "--s", "1",
                            "--check", "dwork-transform", "--n", "1", "2", "3"],
                           capsys)
        assert code == EXIT_PASS
        rows = [json.loads(line) for line in out.splitlines()
                if line.startswith("{")]
        assert len(rows) == 3
        assert all(r["sign"] == -1 for r in rows)

    def test_main_congruence_grid(self, capsys):
        code, _, _ = run(["suite", "--p", "3", "--a", "1/2", "--s", "1",
                          "--c", "4", "--check", "main-congruence",
                          "--n", "1", "2"], capsys)
        assert code == EXIT_PASS

    def test_empty_checks_is_config_error(self, capsys):
        code, _, err = run(["suite", "--p", "3", "--a", "1/2"], capsys)
        assert code == EXIT_CONFIG and "no checks" in err

    def test_validation_rejects_unknown_check(self):
        cfg = SuiteConfig(checks=["bogus"])
        with pytest.raises(ConfigInvalid):
            cfg.validate()

    def test_incompatible_cells_skipped(self, capsys):
        # a = 1/3 cannot be used at p = 3 but runs at p = 5
        code, out, _ = run(["suite", "--p", "3", "5", "--a", "1/3",
                            "--check", "dwork-transform", "--n", "1"], capsys)
        assert code == EXIT_PASS
        assert "skipped" in out
        rows = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        assert {r["params"]["p"] for r in rows} == {"5"}

    def test_report_file(self, tmp_path, capsys):
        path = tmp_path / "report.jsonl"
        cfg = SuiteConfig(p_list=[3], a_list=[],)
        code, _, _ = run(["suite", "--p", "3", "--a", "1/2",
                          "--check", "braced", "--n", "1",
                          "--out", str(path)], capsys)
        assert code == EXIT_PASS
        lines = path.read_text().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["passed"]

    def test_reports_reproducible(self, tmp_path, capsys):
        argv = ["suite", "--p", "3", "--a", "1/2", "--c", "1", "4",
                "--check", "log", "--n", "1", "2"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second

    def test_config_file_and_flags(self, tmp_path, capsys):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("p: 3\na: 1/2\ncheck: braced\nn: 2\n")
        code, out, _ = run(["suite", "--config", str(cfg), "--n", "1"], capsys)
        assert code == EXIT_PASS
        rows = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        # the flag wins over the file value n = 2
        assert [r["modulus"] for r in rows] == [1]

        # flag > file, for a list key and a single-value key
        cfg.write_text("check: braced dwork\njobs: 3\n")

        def resolved(*flags):
            got = cli._build_suite_config(
                build_parser().parse_args(["suite", "--config", str(cfg), *flags]))
            return got.checks, got.jobs

        assert resolved() == (["braced", "dwork"], 3)
        assert resolved("--check", "hat", "--jobs", "1") == (["hat"], 1)

        # a flag is never split on spaces: the report goes to one path
        path = tmp_path / "my report.jsonl"
        code, out, _ = run(["suite", "--config", str(cfg), "--check", "braced",
                            "--jobs", "1", "--out", str(path)], capsys)
        assert code == EXIT_PASS and not out.startswith("{")
        assert [json.loads(l)["check"] for l in path.read_text().splitlines()] == ["braced"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["my report.jsonl", "suite.cfg"]

    def test_standard_grid_file_is_the_benchmark_grid(self, monkeypatch):
        # grids/standard.conf, which CI runs, and GRID in perfbench/workloads.py,
        # which the benchmark runs, define the same grid
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location("workloads",
                                                      root / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
        spec.loader.exec_module(workloads)
        got = cli._build_suite_config(build_parser().parse_args(
            ["suite", "--config", str(root / "grids" / "standard.conf")]))
        expect = {key: [Fraction(v) for v in values] if key in ("a_list", "c_list") else values
                  for key, values in workloads.GRID.items()}
        assert {key: getattr(got, key) for key in expect} == expect
        # out and jobs come from the command line
        assert (got.out, got.jobs) == (None, 1)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_breadth_grid_files(self, p):
        # one grid per p, which CI runs: every check, thirteen values of a,
        # s <= 3, the five constants 1, 1 + q, 1 - q, 1 + q^2 and 1/(1 + q),
        # and n <= 3 at p <= 5, n <= 2 above
        root = Path(__file__).resolve().parents[1]
        got = cli._build_suite_config(build_parser().parse_args(
            ["suite", "--config", str(root / "grids" / f"breadth-p{p}.conf")]))
        got.validate()
        q = 4 if p == 2 else p
        assert (got.p_list, got.checks, got.s_list) == ([p], list(cli.CHECKS), [1, 2, 3])
        assert got.a_list == [Fraction(v) for v in ("1/2", "1/3", "2/3", "1/4", "3/4", "1/5",
                                                     "1/6", "5/6", "1/7", "3/7", "1", "2", "7/3")]
        assert got.c_list == [1, 1 + q, 1 - q, 1 + q * q, Fraction(1, 1 + q)]
        assert got.n_list == ([1, 2, 3] if p <= 5 else [1, 2])

    def test_standard_grid_report_bytes(self, tmp_path, capsys):
        # the serial report of grids/standard.conf is pinned by grids/standard.jsonl
        root = Path(__file__).resolve().parents[1]
        path = tmp_path / "grid.jsonl"
        code, _, _ = run(["suite", "--config", str(root / "grids" / "standard.conf"),
                          "--jobs", "1", "--out", str(path)], capsys)
        assert code == EXIT_PASS
        assert path.read_bytes() == (root / "grids" / "standard.jsonl").read_bytes()

    @pytest.mark.parametrize("key,file_value,flag,expect", [
        ("p", "5", "3", [3]), ("n", "2", "1", [1]), ("a", "1/3", "1/2", [Fraction(1, 2)]),
        ("s", "2", "1", [1]), ("c", "4", "6", [Fraction(6)]), ("check", "dwork", "log", ["log"]),
        ("out", "a.jsonl", "b c.jsonl", "b c.jsonl"), ("jobs", "2", "3", 3)])
    def test_flag_beats_file_for_every_key(self, key, file_value, flag, expect, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(f"{key}: {file_value}\n")
        args = build_parser().parse_args(["suite", "--config", str(cfg), f"--{key}", flag])
        got = cli._build_suite_config(args)
        assert getattr(got, cli._SUITE_KEYS[key][0]) == expect

    @pytest.mark.parametrize("key,value,source", [
        *((key, value, "file") for key, value in [("out", ""), ("jobs", ""), ("jobs", "1 2"),
                                                  ("out", "a.jsonl b.jsonl")]),
        ("out", "", "flag"),
    ])
    def test_single_value_key_needs_one_value(self, source, key, value, tmp_path, capsys):
        # an empty value gives no value, and two are ambiguous: both exit 2
        cfg = tmp_path / "suite.cfg"
        text = "p: 3\na: 1/2\ncheck: braced\nn: 1\n"
        flags = []
        if source == "file":
            text += f"{key}: {value}\n"
        else:
            flags = [f"--{key}", value]
        cfg.write_text(text)
        code, out, err = run(["suite", "--config", str(cfg), *flags], capsys)
        assert code == EXIT_CONFIG and out == ""
        assert err == f"config error: {key} takes one value, got {len(value.split())}\n"

    def test_jobs_parallel(self, capsys):
        code, out, _ = run(["suite", "--p", "3", "--a", "1/2", "2",
                            "--check", "dwork-transform", "--n", "1",
                            "--jobs", "2"], capsys)
        assert code == EXIT_PASS
        rows = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        assert len(rows) == 2


    def test_jobs_serial_and_parallel_reports_identical(self, tmp_path, capsys, monkeypatch):
        # p = 4 is no prime: its cells are recorded as error lines.  a = 1/2
        # at p = 2 is inadmissible and c = 3 is too shallow for hat at
        # p = 2: those cells are skipped
        pools = []

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                self.workers = max_workers

            def map(self, fn, tasks, **kwargs):
                tasks = list(tasks)
                pools.append((self.workers, [task[:3] for task in tasks], kwargs))
                return super().map(fn, tasks, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        reports, summaries = [], []
        for jobs in ("1", "2"):
            path = tmp_path / f"jobs{jobs}.jsonl"
            code, out, _ = run(["suite", "--p", "2", "3", "4", "--a", "1/2", "1/3",
                                "--c", "1", "3",
                                "--check", "dwork", "dwork-transform", "hat", "--n", "1",
                                "--jobs", jobs, "--out", str(path)], capsys)
            assert code == EXIT_FAIL
            reports.append(path.read_bytes())
            summaries.append(out)
        assert reports[0] == reports[1] and summaries[0] == summaries[1]
        rows = [json.loads(line) for line in reports[0].decode().splitlines()]
        # the pool of 2 workers gets the 6 triples one task at a time (no
        # chunk size), so some worker runs several tasks
        assert pools == [(2, [(p, Fraction(1, d), 1) for p in (2, 3, 4) for d in (2, 3)], {})]
        assert [r["check"] for r in rows if "error" in r] == (
            ["congruence-dwork"] * 2 + ["dwork-transform"] * 2 + ["congruence-hat"] * 4)
        assert [(r["params"]["p"], r["params"]["a"], r["params"]["c"])
                for r in rows if r["check"] == "congruence-hat" and "error" not in r] == [
            ("2", "1/3", "1"), ("3", "1/2", "1")]
        # dwork and dwork-transform: a = 1/2 at p = 2 and a = 1/3 at p = 3;
        # hat: those two at c = 1 and c = 3, and the other two at c = 3
        assert "skipped 10 incompatible grid cells" in summaries[0]

    @settings(deadline=None, max_examples=25)
    @given(GRIDS, st.just(1))
    @example({"p_list": [5, 4, 3], "a_list": [Fraction(1, 3), Fraction(1, 2)], "s_list": [2, 1],
              "c_list": [Fraction(6), Fraction(1)], "n_list": [2, 1],
              "checks": ["ratio-identity", "hat", "braced", "dwork"]}, 2)
    def test_report_is_each_cell_alone_in_report_order(self, grid, jobs):
        # lines by check, then p, a, s, c, n in the order of their lists,
        # error lines last, whichever triple's task ran a cell
        stream = io.StringIO()
        code = run_suite(SuiteConfig(**grid, jobs=jobs), stream)
        assert (code, stream.getvalue()) == suite_alone(SuiteConfig(**grid))

    def test_serial_run_does_not_import_process_pool(self):
        # the process pool is imported only for --jobs > 1
        code = ("import sys; from padichg.cli import main; "
                "main(['suite', '--check', 'braced', '--n', '1']); "
                "assert 'concurrent.futures.process' not in sys.modules")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_modulus_zero_log_cell_skipped(self, capsys):
        # p = 2, c = 3: log is decided mod 2^{n-1}, so n = 1 decides nothing
        code, out, _ = run(["suite", "--p", "2", "--a", "1/3", "--c", "3",
                            "--n", "1", "2", "--check", "log"], capsys)
        assert code == EXIT_PASS
        rows = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        assert [(r["params"]["n"], r["modulus"]) for r in rows] == [("2", 1)]
        assert "skipped 1 incompatible grid cells" in out

    def test_skip_count_is_per_cell(self, capsys):
        # a = 1/3 is inadmissible at p = 3: one skipped cell per n; the
        # cells at p = 5 run
        code, out, _ = run(["suite", "--p", "3", "5", "--a", "1/3", "--n", "1", "2",
                            "--check", "dwork"], capsys)
        assert code == EXIT_PASS
        assert "skipped 2 incompatible grid cells" in out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_every_cell_skipped_is_a_config_error(self, jobs, capsys):
        # a = 1/2 is inadmissible at p = 2: the only cell checks nothing
        code, out, err = run(["suite", "--check", "dwork", "--p", "2", "--a", "1/2",
                              "--n", "1", "2", "--jobs", jobs], capsys)
        assert code == EXIT_CONFIG
        assert out == (f"{'check':<18}{'pass':>6}{'fail':>6}\n{'dwork':<18}{0:>6}{0:>6}\n"
                       "skipped 2 incompatible grid cells\n")
        assert err == "config error: no grid cell meets its check's hypotheses\n"

    def test_table_longer_than_maxsize_skips_its_cell(self, capsys):
        # dwork, integrality and the transform at p = 3, n = 99999 read about
        # 2·3^99999 terms; such a call joins no union of the triple's calls
        for checks in (["dwork", "integrality"], ["dwork", "dwork-transform"]):
            code, out, err = run(["suite", "--check", *checks, "--p", "3",
                                  "--a", "1/2", "--c", "4", "--n", "99999"], capsys)
            assert code == EXIT_CONFIG and not out.startswith("{")
            assert "skipped 2 incompatible grid cells" in out
            assert err == "config error: no grid cell meets its check's hypotheses\n"

    @pytest.mark.parametrize("check", ["interpolation", "braced", "beta-pairing"])
    def test_index_past_maxsize_skips_its_cell(self, check, capsys):
        # at p = 3, n = 99999 interpolation reads ks up to 2·3^99999, braced
        # residues up to 3^199998 and beta-pairing the witness 3^99999
        code, out, err = run(["suite", "--check", check, "--p", "3", "--a", "1/2",
                              "--c", "4", "--n", "99999"], capsys)
        assert code == EXIT_CONFIG and not out.startswith("{")
        assert "skipped 1 incompatible grid cells" in out
        assert err == "config error: no grid cell meets its check's hypotheses\n"

    def test_repeated_value_runs_no_cell(self, capsys, monkeypatch):
        # one cell four times over would write four identical lines
        ran = []
        monkeypatch.setattr(cli, "_point_outcomes", ran.append)
        code, out, err = run(["suite", "--check", "dwork", "dwork", "--p", "3", "3",
                              "--n", "1"], capsys)
        assert code == EXIT_CONFIG and out == "" and not ran
        # keys are checked in the order p, n, a, s, c, check
        assert err == "config error: repeated p value 3\n"
        with pytest.raises(ConfigInvalid, match="repeated a value 1/2"):
            SuiteConfig(checks=["dwork"], a_list=[Fraction(1, 2), Fraction(2, 4)]).validate()

    def test_unwritable_out_runs_no_cell(self, tmp_path, capsys, monkeypatch):
        # the report path is opened before the first cell runs
        ran = []
        monkeypatch.setattr(cli, "_point_outcomes", ran.append)
        code, out, err = run(["suite", "--check", "main-congruence", "--p", "5", "--n", "7",
                              "--a", "1/2", "--c", "6",
                              "--out", str(tmp_path / "missing" / "r.jsonl")], capsys)
        assert code == EXIT_CONFIG and out == "" and not ran
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_non_prime_is_an_error_line(self, capsys):
        # p = 4 is no prime, whatever a is: an error line, not a skipped cell
        code, out, _ = run(["suite", "--p", "4", "--a", "1/4", "--n", "1",
                            "--check", "dwork"], capsys)
        assert code == EXIT_FAIL
        rows = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        assert [r["error"] for r in rows] == ["ValueError: 4 is not prime"]
        assert "skipped" not in out

    @pytest.mark.parametrize("check", list(cli.CHECKS))
    def test_error_line_names_the_check_as_its_report_lines_do(self, check):
        # a reader keys cells by check and params: an error cell and a
        # passing cell of one check carry the same name
        [(_, passed, line)], [(error, _, error_line)] = (cli._point_outcomes(
            (p, a, 1, [(check, 1, Fraction(4))]))
            for p, a in ((3, Fraction(1, 2)), (4, Fraction(1, 4))))
        assert passed and error
        assert json.loads(error_line)["check"] == json.loads(line)["check"]

    def test_error_line_params_are_strings(self, capsys):
        # report lines and error lines write every parameter as a string
        code, out, _ = run(["suite", "--p", "3", "4", "--a", "1/4", "--n", "1",
                            "--check", "dwork"], capsys)
        assert code == EXIT_FAIL
        rows = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        assert [r["params"]["p"] for r in rows] == ["3", "4"]
        assert all(isinstance(v, str) for r in rows for v in r["params"].values())
        assert rows[1]["params"] == {"a": "1/4", "c": "1", "n": "1", "p": "4", "s": "1"}

    def test_suite_calls_patched_checker(self, capsys, monkeypatch):
        # the runner looks its checker up when the cell runs
        seen = []

        def fake(params, c, n):
            seen.append((params.p, params.a, c, n))
            return CheckReport(check="main-congruence", params={"p": params.p},
                               passed=True, modulus=n)

        monkeypatch.setattr(cli, "check_main_congruence", fake)
        code, out, _ = run(["suite", "--p", "3", "--a", "1/2", "--c", "4", "--n", "2",
                            "--check", "main-congruence"], capsys)
        assert code == EXIT_PASS
        assert seen == [(3, Fraction(1, 2), Fraction(4), 2)]
        assert out.splitlines()[0] == fake(HGParams.create(Fraction(1, 2), 1, 3),
                                           Fraction(4), 2).to_json()

    def test_grid_expanded_over_c_and_n_where_read(self, capsys):
        # 2 c x 2 n cells for a check that reads both, 2 for one that reads
        # only n, 1 for the ratio identity
        code, out, _ = run(["suite", "--p", "3", "--a", "1/2", "--c", "1", "4",
                            "--n", "1", "2", "--check", *cli.CHECKS], capsys)
        assert code == EXIT_PASS and "skipped" not in out
        rows = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        counts = {}
        for r in rows:
            counts[r["check"]] = counts.get(r["check"], 0) + 1
        assert counts == {
            "congruence-dwork": 2, "congruence-log": 4, "congruence-hat": 4,
            "dwork-transform": 2, "braced": 2, "beta-pairing": 4, "section-sums": 2,
            "main-congruence": 4, "ratio-identity": 1, "integrality": 4, "interpolation": 4}

    def test_n_independent_check_expanded_once(self, capsys):
        code, out, _ = run(["suite", "--p", "3", "--a", "1/2", "--s", "1", "2",
                            "--check", "ratio-identity", "--n", "1", "2"], capsys)
        assert code == EXIT_PASS
        rows = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        assert [r["params"]["s"] for r in rows] == ["1", "2"]


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["table", "--kind", "beta-hat", "--a", "1/2", "--points", "1/3", "--p", "3"],
        ["table", "--kind", "beta", "--a", "1/2", "--c", "2", "--p", "3", "--points", "3"],
        ["suite", "--config", "/nonexistent"],
        ["suite", "--check", "dwork", "--out", "/nonexistent/dir/x.jsonl"],
        ["table", "--kind", "beta-hat", "--a", "1/2", "--p", "3", "--c", "2", "--points", "1",
         "2"],
        ["table", "--kind", "beta", "--a", "1/2", "--c", "2", "--p", "3", "--points", "1"],
        # at p = 2 beta and beta-hat need c in 1 + 4W; c = 3 is in 1 + 2W only
        ["table", "--kind", "beta", "--a", "1/3", "--p", "2", "--c", "3", "--points", "2",
         "--prec", "3"],
        ["table", "--kind", "beta-hat", "--a", "1/3", "--p", "2", "--c", "3", "--points", "2",
         "--prec", "3"],
        # a zero denominator from a flag or the config file {cfg}
        ["suite", "--check", "dwork", "--a", "1/0"],
        ["suite", "--check", "log", "--c", "1/0"],
        ["suite", "--config", "{cfg}"],
        # residues mod 3^99999 are too long to write (and the witness of 1/2
        # is past sys.maxsize, as it is at --prec 99, the last case)
        ["table", "--kind", "beta", "--a", "1/2", "--p", "3", "--c", "4", "--points", "1/2",
         "--prec", "99999"],
        ["table", "--kind", "A", "--a", "1/0", "--p", "3"],
        ["table", "--kind", "B", "--a", "1/2", "--p", "3", "--c", "1/0"],
        ["table", "--kind", "beta", "--a", "1/2", "--p", "3", "--c", "4", "--points", "1/0"],
        ["table", "--kind", "beta-hat", "--a", "1/2", "--p", "3", "--points", "1/0"],
        ["table", "--kind", "beta-hat", "--a", "1/2", "--p", "3", "--c", "1/0", "--points", "1"],
        # c = 0 on the hat side is rejected before 1/c is formed
        ["table", "--kind", "Bhat", "--a", "1/2", "--p", "3", "--c", "0"],
        # no list holds a table longer than sys.maxsize
        ["table", "--kind", "A", "--a", "1/2", "--p", "3", "--count", str(10 ** 20),
         "--prec", "2"],
        # the witness of 1/2 mod 3^99 is past sys.maxsize
        ["table", "--kind", "beta", "--a", "1/2", "--p", "3", "--c", "4", "--points", "1/2",
         "--prec", "99"],
    ])
    def test_exit_config_with_one_line(self, argv, tmp_path, capsys):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("check: dwork\na: 1/0\n")
        code, _, err = run([arg.format(cfg=cfg) for arg in argv], capsys)
        assert code == EXIT_CONFIG
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


    @pytest.mark.parametrize("text", ["ns: 1 2\n", "check: dwork\nconfig: other.cfg\n",
                                      "check: dwork\nP: 3\n"])
    def test_unknown_config_key(self, text, tmp_path, capsys):
        # a typo of a key is an input error, not a key silently dropped
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(text)
        code, out, err = run(["suite", "--config", str(cfg)], capsys)
        key = text.splitlines()[-1].split(":")[0]
        assert code == EXIT_CONFIG and out == ""
        assert err == f"config error: unknown config key {key!r}\n"

    @pytest.mark.parametrize("key,value", [("p", "x"), ("n", "1.5"), ("s", "x"), ("jobs", "x"),
                                           ("a", "x"), ("c", "1/0")])
    def test_flag_and_file_value_fail_alike(self, key, value, tmp_path, capsys):
        # both go through the key table's cast: the same one line, naming the key
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(f"check: dwork\n{key}: {value}\n")
        errs = []
        for argv in (["suite", "--check", "dwork", f"--{key}", value],
                     ["suite", "--config", str(cfg)]):
            code, out, err = run(argv, capsys)
            assert code == EXIT_CONFIG and out == ""
            errs.append(err)
        assert errs[0] == errs[1] and len(errs[0].splitlines()) == 1
        assert errs[0].startswith(f"error: {key}: ")

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_unknown_check(self, source, tmp_path, capsys):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("check: dwork bogus\n")
        argv = ["suite", "--check", "dwork", "bogus"] if source == "flag" else [
            "suite", "--config", str(cfg)]
        code, out, err = run(argv, capsys)
        assert code == EXIT_CONFIG and out == ""
        assert err == "config error: unknown check 'bogus'\n"

    @pytest.mark.parametrize("key,values", [("p", "3 5 3"), ("n", "1 1"), ("a", "1/2 2/4"),
                                            ("s", "2 2"), ("c", "4 4"), ("check", "log log")])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_repeated_list_value(self, key, values, source, tmp_path, capsys):
        # the same value twice gives the same cells twice, from either source
        cfg = tmp_path / "suite.cfg"
        text = "check: dwork\n" if key != "check" else ""
        flags = []
        if source == "flag":
            flags = [f"--{key}", *values.split()]
        else:
            text += f"{key}: {values}\n"
        cfg.write_text(text)
        code, out, err = run(["suite", "--config", str(cfg), *flags], capsys)
        repeated = {"p": "3", "a": "1/2"}.get(key, values.split()[0])
        assert code == EXIT_CONFIG and out == ""
        assert err == f"config error: repeated {key} value {repeated}\n"


class TestParser:
    def test_main_reuses_one_parser(self, capsys):
        parser = build_parser()
        misses = build_parser.cache_info().misses
        for _ in range(3):
            code, out, _ = run(["table", "--kind", "A", "--a", "1", "--p", "3",
                                "--count", "2"], capsys)
            assert code == EXIT_PASS and len(out.splitlines()) == 2
        assert build_parser() is parser
        assert build_parser.cache_info().misses == misses

    def test_suite_flags_are_the_key_table(self):
        # one flag per suite key, and --config
        assert vars(build_parser().parse_args(["suite"])).keys() == {
            "command", "config", *cli._SUITE_KEYS}

    def test_suite_help_lists_every_check(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # no line wrapped
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--help"])
        assert exc.value.code == 0
        assert "checks to run: " + ", ".join(cli.CHECKS) in capsys.readouterr().out

    def test_bad_flag_exits_2_with_one_error_line(self, capsys):
        # twice, so that a parser left changed by the first call would show
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["table", "--kind", "A", "--a", "1", "--p", "3", "--bogus"])
            assert exc.value.code == EXIT_CONFIG
            err = capsys.readouterr().err
            assert [l for l in err.splitlines() if "error" in l] == [
                "padic-hg: error: unrecognized arguments: --bogus"]
            assert "Traceback" not in err


class TestTable:
    def test_kind_a_all_ones(self, capsys):
        code, out, _ = run(["table", "--kind", "A", "--a", "1", "--p", "3",
                            "--count", "4"], capsys)
        assert code == EXIT_PASS
        rows = [json.loads(l) for l in out.splitlines()]
        assert [r["residue"] for r in rows] == [1, 1, 1, 1]

    def test_kind_b_closed_form(self, capsys):
        code, out, _ = run(["table", "--kind", "B", "--a", "1", "--p", "3",
                            "--count", "4", "--prec", "3"], capsys)
        rows = [json.loads(l) for l in out.splitlines()]
        # B_0 = 0, B_1 = 1, B_2 = 1/2 embedded (14 mod 27), B_3 = 0
        assert [r["residue"] for r in rows] == [0, 1, 14, 0]

    def test_kind_beta(self, capsys):
        code, out, _ = run(["table", "--kind", "beta", "--a", "1/2", "--p", "3",
                            "--points", "1", "--prec", "2"], capsys)
        rows = [json.loads(l) for l in out.splitlines()]
        assert rows[0]["residue"] == 1

    @pytest.mark.parametrize("kind", ["A", "B", "Bhat"])
    def test_count_zero_rejected(self, kind, capsys):
        code, out, err = run(["table", "--kind", kind, "--a", "1/2", "--p", "3",
                              "--count", "0"], capsys)
        assert code == EXIT_CONFIG and out == ""
        assert err == "error: count must be positive\n"

    @pytest.mark.parametrize("argv", [
        ["--kind", "A", "--count", "0"], ["--kind", "B", "--prec", "0"],
        ["--kind", "beta", "--c", "2", "--points", "1"], ["--kind", "A", "--points", "1"],
    ])
    def test_input_error_leaves_out_untouched(self, argv, tmp_path, capsys):
        # the rows are built before --out is opened: a new path is not
        # created, and an existing file keeps its bytes
        fresh, kept = tmp_path / "t.jsonl", tmp_path / "kept.jsonl"
        kept.write_text("earlier\n")
        for out in (fresh, kept):
            code, _, err = run(["table", "--a", "1/2", "--p", "3", *argv, "--out", str(out)],
                               capsys)
            assert code == EXIT_CONFIG and len(err.splitlines()) == 1
        assert not fresh.exists() and kept.read_text() == "earlier\n"

    def test_empty_out_is_an_input_error(self, capsys):
        # an empty path names no file: it does not mean stdout
        code, out, err = run(["table", "--kind", "A", "--a", "1/2", "--p", "3", "--out", ""],
                             capsys)
        assert code == EXIT_CONFIG and out == "" and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["--kind", "A", "--count", "2", "--prec", "9100"],
        ["--kind", "Bhat", "--c", "4", "--prec", "9100"],
        ["--kind", "beta", "--c", "4", "--points", "1", "--prec", "9100"],
        ["--kind", "A", "--prec", str(10 ** 12)],
    ])
    def test_prec_past_the_int_digit_limit_rejected(self, argv, digit_limit, monkeypatch, capsys):
        # residues mod 3^9100 have 4,342 digits, past Python's default limit
        # of 4,300 for writing an int: an input error, before any table
        for name in ("hg_series", "b_coefficients", "bhat_coefficients", "beta_values"):
            monkeypatch.setattr(cli, name, lambda *args, **kw: pytest.fail("a table was built"))
        code, out, err = run(["table", "--a", "1/2", "--p", "3", *argv], capsys)
        assert code == EXIT_CONFIG and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: --prec ")

    def test_prec_at_the_int_digit_limit_written(self, digit_limit, capsys):
        # 3^9012 has 4,300 digits, so every residue mod it can be written
        code, out, _ = run(["table", "--kind", "A", "--a", "1/2", "--p", "3", "--count", "2",
                            "--prec", "9012"], capsys)
        assert code == EXIT_PASS and len(out.splitlines()) == 2
        assert len(str(3 ** 9012)) == 4300

    @pytest.mark.parametrize("prec", ["0", "-1"])
    @pytest.mark.parametrize("kind", ["A", "B", "Bhat", "beta", "beta-hat"])
    def test_prec_below_one_rejected(self, kind, prec, capsys):
        points = ["--points", "1"] if kind.startswith("beta") else []
        code, out, err = run(["table", "--kind", kind, "--a", "1/2", "--p", "3",
                              "--prec", prec, *points], capsys)
        assert code == EXIT_CONFIG and out == ""
        assert err == "error: precision must be positive\n"

    def test_csv_format(self, capsys):
        code, out, _ = run(["table", "--kind", "A", "--a", "1/2", "--p", "3",
                            "--count", "2", "--format", "csv"], capsys)
        lines = out.strip().splitlines()
        assert lines[0].startswith("k,") and len(lines) == 3


def _old_rendering(rows, fmt):
    """Table rows as json.dumps(row, sort_keys=True) lines or through
    csv.DictWriter: the rendering the template must reproduce byte for byte."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


class TestTableBytes:
    P = HGParams.create(Fraction(1, 2), 2, 3)

    # one row, and the rows around one and two chunks of the writer
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("count", [1, 30, cli._ROWS - 1, cli._ROWS, cli._ROWS + 1,
                                       2 * cli._ROWS + 1])
    @pytest.mark.parametrize("kind", ["A", "B", "Bhat"])
    def test_coefficient_table(self, kind, count, fmt, tmp_path, capsys):
        out = tmp_path / "table"
        code, _, _ = run(["table", "--kind", kind, "--a", "1/2", "--s", "2", "--p", "3",
                          "--c", "-2", "--count", str(count), "--prec", "4",
                          "--format", fmt, "--out", str(out)], capsys)
        frob, frob_hat = twist_pair(Fraction(-2))
        series = {"A": lambda: hg_series(self.P, count, 4),
                  "B": lambda: b_coefficients(self.P, frob, count, 4),
                  "Bhat": lambda: bhat_coefficients(self.P, frob_hat, count, 4)}[kind]()
        rows = [{"k": k, "residue": r, "prec": 4} for k, r in enumerate(series)]
        assert code == EXIT_PASS
        assert out.read_bytes() == _old_rendering(rows, fmt).encode()

    # nonnegative: argparse reads "--points -7/4" as a flag
    POINTS = ["0", "1", "2", "1/2", "7/4", "5/11"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("points", [POINTS, ["1/2"]])
    def test_beta_table_is_per_point_beta_at(self, points, fmt, tmp_path, capsys):
        out = tmp_path / "table"
        code, _, _ = run(["table", "--kind", "beta", "--a", "1/2", "--s", "2", "--p", "3",
                          "--c", "-2", "--prec", "4", "--format", fmt, "--out", str(out),
                          "--points", *points], capsys)
        values = beta_values([Fraction(v) for v in points], self.P, FrobeniusSpec(Fraction(-2)), 4)
        rows = [{"lambda": v, "residue": b, "prec": 4} for v, b in zip(points, values)]
        assert code == EXIT_PASS
        assert out.read_bytes() == _old_rendering(rows, fmt).encode()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_beta_table_keys_are_json_strings(self, fmt, capsys):
        # keys with a slash and a sign, which argparse cannot pass as --points
        lambdas = [Fraction(-7, 4), Fraction(1, 2), Fraction(-3), Fraction(0)]
        cli.emit_table("beta", self.P, Fraction(-2), 0, 4, fmt, None, lambdas)
        frob = FrobeniusSpec(Fraction(-2))
        rows = [{"lambda": str(lam), "residue": beta_values([lam], self.P, frob, 4)[0], "prec": 4}
                for lam in lambdas]
        assert capsys.readouterr().out == _old_rendering(rows, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_beta_table_past_one_chunk(self, fmt, capsys):
        # signed and slashed keys on both sides of a chunk boundary
        lambdas = [Fraction((-1) ** i * i, 1 + 3 * (i % 5)) for i in range(cli._ROWS + 2)]
        cli.emit_table("beta", self.P, Fraction(-2), 0, 4, fmt, None, lambdas)
        values = beta_values(lambdas, self.P, FrobeniusSpec(Fraction(-2)), 4)
        rows = [{"lambda": str(lam), "residue": b, "prec": 4} for lam, b in zip(lambdas, values)]
        assert capsys.readouterr().out == _old_rendering(rows, fmt)

    def test_beta_table_without_points_is_an_input_error(self, capsys):
        # it would write no row
        code, out, err = run(["table", "--kind", "beta", "--a", "1/2", "--p", "3",
                              "--format", "csv"], capsys)
        assert code == EXIT_CONFIG and out == ""
        assert err == "error: kind beta needs --points\n"

    @pytest.mark.parametrize("argv", [
        ["--kind", "beta-hat", "--c", "4", "--prec", "2"], ["--kind", "A", "--points", "1"],
        ["--kind", "B", "--c", "4", "--points", "0", "1/2"],
        ["--kind", "Bhat", "--c", "4", "--points", "2", "--format", "csv"],
    ])
    def test_points_only_and_always_for_beta_kinds(self, argv, capsys):
        # beta-hat without lambdas would write no row; --points on a
        # coefficient table would be ignored
        code, out, err = run(["table", "--a", "1/2", "--p", "3", *argv], capsys)
        assert code == EXIT_CONFIG and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("hat", [False, True])
    def test_interp_is_per_point_beta_at(self, hat, capsys):
        # the interpolated values: beta along sigma, beta-hat along sigma-hat
        argv = ["table", "--kind", "beta-hat" if hat else "beta", "--a", "1/2", "--s", "2",
                "--p", "3", "--c", "-2", "--prec", "4"]
        code, out, _ = run(argv + ["--points", *self.POINTS], capsys)
        frob = twist_pair(Fraction(-2))[hat]
        rows = [{"lambda": v, "residue": beta_values([Fraction(v)], self.P, frob, 4, hat=hat)[0],
                 "prec": 4} for v in self.POINTS]
        assert code == EXIT_PASS and out == _old_rendering(rows, "json")


class TestInterp:
    """beta and beta-hat through `table`, the one CLI route to them."""

    def test_beta_values(self, capsys):
        code, out, _ = run(["table", "--kind", "beta", "--a", "1/2", "--p", "3", "--prec", "2",
                            "--points", "1", "2"], capsys)
        assert code == EXIT_PASS
        rows = [json.loads(l) for l in out.splitlines()]
        assert rows[0]["residue"] == 1
        assert rows[1]["residue"] == 5  # 1/2 mod 9

    def test_hat_kind(self, capsys):
        code, out, _ = run(["table", "--kind", "beta-hat", "--a", "1/2", "--p", "3",
                            "--prec", "2", "--points=-3/2"], capsys)
        rows = [json.loads(l) for l in out.splitlines()]
        # beta-hat at -1 - a is -1/1
        assert rows[0]["residue"] == 8

    def test_bad_prime(self, capsys):
        code, _, err = run(["table", "--kind", "beta-hat", "--a", "1/2", "--p", "4",
                            "--points", "1"], capsys)
        assert code == EXIT_CONFIG
        assert err == "error: 4 is not prime\n"

    def test_interp_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["interp", "--a", "1/2", "--p", "3", "--lam", "1"])
        assert exc.value.code == EXIT_CONFIG
        assert "invalid choice: 'interp'" in capsys.readouterr().err

    # c = 1 + q and c = 1 - q at each p; a = 1/3 at p = 2, where 1/2 is inadmissible
    @pytest.mark.parametrize("lam", ["0", "1", "2", "3", "-1-a"])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_beta_and_beta_hat_rows_pair_to_zero(self, p, sign, lam, capsys):
        # beta_lambda + beta-hat_{-lambda-a} ≡ 0 mod p^prec, beta along
        # sigma and beta-hat along sigma-hat with the one constant c
        a = Fraction(1, 3) if p == 2 else Fraction(1, 2)
        c = 1 + sign * HGParams.create(a, 1, p).q
        lam = -1 - a if lam == "-1-a" else Fraction(lam)

        def residue(kind, point):
            # --points=x: argparse reads a separate "-3/2" as a flag
            code, out, _ = run(["table", "--kind", kind, "--a", str(a), "--p", str(p),
                                f"--c={c}", "--prec", "4", f"--points={point}"], capsys)
            assert code == EXIT_PASS
            return json.loads(out)["residue"]

        assert (residue("beta", lam) + residue("beta-hat", -lam - a)) % p ** 4 == 0


class TestRunSuiteApi:
    def test_failing_cell_sets_exit(self, monkeypatch):
        # one failing report among passing ones makes the run exit 1
        def half_failing(params, n):
            return CheckReport(check="braced", params={"n": n}, passed=n == 1, modulus=n,
                               first_failure=None if n == 1 else {"x": 0, "y": 1})

        monkeypatch.setattr(cli, "sweep_braced", half_failing)
        cfg = SuiteConfig(p_list=[3], n_list=[1, 2], checks=["braced"])
        buf = io.StringIO()
        assert run_suite(cfg, stream=buf) == EXIT_FAIL
        rows = [json.loads(l) for l in buf.getvalue().splitlines() if l.startswith("{")]
        assert [(r["params"]["n"], r["passed"]) for r in rows] == [("1", True), ("2", False)]

    def test_empty_a_list_is_config_error(self):
        cfg = SuiteConfig(p_list=[3], a_list=[], checks=["braced"])
        with pytest.raises(ConfigInvalid):
            cfg.validate()

    def test_stream_summary(self):
        cfg = SuiteConfig(checks=["braced"])
        buf = io.StringIO()
        assert run_suite(cfg, stream=buf) == EXIT_PASS
        assert "braced" in buf.getvalue()


# the breadth grids' values of a, and of c per p: 1, 1 + q, 1 - q, 1 + q^2
# and 1/(1 + q), with q = 4 at p = 2
BREADTH_A = [Fraction(v) for v in "1/2 1/3 2/3 1/4 3/4 1/5 1/6 5/6 1/7 3/7 1 2 7/3".split()]


def breadth_c(p):
    q = 4 if p == 2 else p
    return [Fraction(1), Fraction(1 + q), Fraction(1 - q), Fraction(1 + q * q),
            Fraction(1, 1 + q)]


# a triple (p, a, s) of the breadth grids with one to three n and one or
# two c; at p = 2 also c = 3, in 1 + 2W only, at which log compares mod
# 2^{n-1} beside the checks mod 2^n
TRIPLES = st.sampled_from([2, 3, 5, 7]).flatmap(lambda p: st.tuples(
    st.just(p), st.sampled_from(BREADTH_A), st.integers(1, 3),
    st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True),
    st.lists(st.sampled_from(breadth_c(p) + [Fraction(3)] * (p == 2)), min_size=1,
             max_size=2, unique=True)))


def alone(check, p, a, s, n, c):
    """The cell's line when its public checker runs alone: its report's JSON,
    None when it is skipped, or its error."""
    try:
        checker, *args = cli.CHECKS[check][0](HGParams.create(a, s, p), c, n)
        return checker(*args).to_json()
    except PreconditionViolated:
        return None
    except Exception as exc:  # noqa: BLE001 - an error cell
        return f"{type(exc).__name__}: {exc}"


def built(build):
    """The tables build() returns, or the error it raises."""
    try:
        return build()
    except Exception as exc:  # noqa: BLE001 - compared as text
        return f"{type(exc).__name__}: {exc}"


def started_calls(p, a, s, ns, cs):
    """The `_quotients` call of each cell of the triple at every n and c
    whose step starts."""
    params = cli._attempt(HGParams.create, a, s, p)
    if isinstance(params, Exception):
        return []
    started = [cli._attempt(cli._start, *run(params, c, n))
               for run, _, _ in cli.CHECKS.values() for n in ns for c in cs]
    return [got[1] for got in started if isinstance(got, tuple)]


def assert_own_tables(calls):
    """Each call gets from `_quotient_calls` the tables it builds alone; a
    call no union served (None) is built on its own, as the suite does.
    When no call raises alone, two or more calls all share a union."""
    with patch.object(hyper, "_UNION_ENTRIES", 10 ** 9):
        unions = hyper._quotient_calls(calls)
    own = [built(partial(hyper._quotients, *call)) for call in calls]
    assert [built(partial(hyper._quotients, *call)) if tables is None else tables
            for call, tables in zip(calls, unions)] == own
    if len(calls) > 1 and not any(isinstance(tables, str) for tables in own):
        assert None not in unions


def requests(p, c):
    """A `_quotients` request of any kind at p with the constant c: A at
    levels 0-2, B and B/A along sigma, Bhat and Bhat/A along sigma-hat, and
    G, with indices as a range of step 1, a stepped range or a list."""
    frob, frob_hat = twist_pair(c)

    def indices(low):
        k = st.integers(low, 60)
        return st.one_of(st.builds(lambda i, j: range(min(i, j), max(i, j)), k, k),
                         st.builds(range, k, k, st.integers(2, 3)),
                         st.lists(k, max_size=6))

    return st.one_of(
        st.tuples(st.just("A"), st.integers(0, 2), indices(0)),
        st.tuples(st.sampled_from(["B", "B/A"]), st.just(frob), indices(1)),
        st.tuples(st.sampled_from(["Bhat", "Bhat/A"]), st.just(frob_hat), indices(0)),
        st.tuples(st.just("G"), st.just(frob), st.builds(range, st.integers(0, 40))))


# one params object and its calls (params, requests, prec) at precisions 1 to 4
CALLS = st.sampled_from([2, 3, 5, 7]).flatmap(lambda p: st.tuples(
    st.sampled_from(BREADTH_A).filter(lambda a: a.denominator % p),
    st.integers(1, 3), st.sampled_from(breadth_c(p) + [Fraction(3)] * (p == 2))).flatmap(
    lambda t: st.lists(st.tuples(
        st.just(HGParams.create(t[0], t[1], p)),
        st.lists(requests(p, t[2]), min_size=1, max_size=3), st.integers(1, 4)),
        min_size=2, max_size=6)))


class TestPointRunner:
    """The suite runs the cells of each parameter triple (p, a, s) together:
    it starts every cell's step at each n and c, builds their tables as
    `_quotients` unions under an entry bound, each at the highest precision
    among its calls, and finishes each step."""

    @settings(deadline=None, max_examples=40)
    @given(TRIPLES)
    def test_each_line_is_its_checker_alone(self, triple):
        p, a, s, ns, cs = triple
        cells = [(check, n, c) for check in cli.CHECKS for n in ns for c in cs]
        outcomes = cli._point_outcomes((p, a, s, cells))
        got = [None if o is None else json.loads(o[2])["error"] if o[0] else o[2]
               for o in outcomes]
        assert got == [alone(check, p, a, s, n, c) for check, n, c in cells]

    @settings(deadline=None, max_examples=60)
    @given(TRIPLES)
    @example((2, Fraction(1, 3), 1, [1, 2, 3], [Fraction(3), Fraction(5)]))
    def test_each_call_gets_its_own_tables(self, triple):
        # the example's log calls at c = 3 are built mod 2^{n-1}, from a
        # union mod 2^4, the section sums' at n = 3
        assert_own_tables(started_calls(*triple))

    @settings(deadline=None, max_examples=150)
    @given(CALLS)
    def test_lifted_union_gives_each_call_its_own_tables(self, calls):
        # every request kind at several precisions: G's B_0 is read at the
        # witness p^prec (2^{prec+1} at p = 2, c = 3), which moves with it
        assert_own_tables(calls)

    @pytest.mark.parametrize("extra,made", [(0, 1), (1, 2)])
    def test_union_of_at_most_the_bound(self, extra, made, monkeypatch):
        # the union of the two calls is A's widest span, range(size), and the
        # list of A^(1), which lies in no span: the bound's entries plus
        # extra.  At the bound one `_quotients` call serves both; one entry
        # past it each step makes its own
        P = HGParams.create(Fraction(1, 2), 1, 3)
        size = hyper._UNION_ENTRIES - 2 + extra
        calls = [(P, [("A", 0, range(size))], 1),
                 (P, [("A", 0, range(5, 40)), ("A", 1, [7, 3])], 1)]
        count = []
        original = hyper._quotients
        for module in (hyper, verify):
            monkeypatch.setattr(module, "_quotients", lambda *args: count.append(args[2]) or
                                original(*args))

        def step(call):  # the step of one call: it returns the tables it is sent
            return list((yield call))

        got = []
        for call, tables in zip(calls, hyper._quotient_calls(calls)):
            started = step(call)
            got.append(verify._finish(started, next(started), tables))
        assert len(count) == made
        assert got == [original(*call) for call in calls]

    @pytest.mark.parametrize("limit,calls", [(hyper._UNION_ENTRIES, 1), (0, 30)])
    def test_one_call_per_triple(self, limit, calls, monkeypatch):
        # p = 3, a = 1/2: every cell runs.  At c = 1 nine checks read tables,
        # the section sums at n + 1 and the others at n; at c = 4 the six
        # that read c, at n.  Under the bound one call for the triple, at
        # the highest precision; at bound 0 one per cell, 2 * (9 + 6)
        made = []
        original = hyper._quotients
        for module in (hyper, verify):  # a union's call and a step's own call
            monkeypatch.setattr(module, "_quotients", lambda *args: made.append(args[2]) or
                                original(*args))
        monkeypatch.setattr(hyper, "_UNION_ENTRIES", limit)
        cfg = SuiteConfig(p_list=[3], n_list=[1, 2], c_list=[Fraction(1), Fraction(4)],
                          checks=list(cli.CHECKS), out=None)
        buf = io.StringIO()
        assert run_suite(cfg, stream=buf) == EXIT_PASS
        assert len(made) == calls and (limit == 0 or made == [3])
        lines = [line for line in buf.getvalue().splitlines() if line.startswith("{")]
        assert len(lines) == 2 * 11 - 1 + 2 * 6  # the ratio identity reads no n

    def test_low_precision_calls_share_a_union_past_the_bound(self, monkeypatch):
        # integrality at p = 3, c = 4 reads G and Bhat to k = 2·3^n, at n:
        # 7, 19 and 55 entries each for n = 1, 2, 3.  Under a bound of
        # 2 * 19 the calls at n = 1 and 2 share one union, mod 3^2, which the
        # call at n = 3 would push past it: that call is made on its own,
        # and the union keeps the spans it had before that call
        made = []  # (prec, entries) of each `_quotients` call
        original = hyper._quotients
        for module in (hyper, verify):
            monkeypatch.setattr(module, "_quotients", lambda *args: made.append(
                (args[2], sum(len(ks) for *_, ks in args[1]))) or original(*args))
        reports = []
        for limit in (2 * 19, 0):
            monkeypatch.setattr(hyper, "_UNION_ENTRIES", limit)
            cfg = SuiteConfig(p_list=[3], n_list=[1, 2, 3], c_list=[Fraction(4)],
                              checks=["integrality"])
            buf = io.StringIO()
            assert run_suite(cfg, stream=buf) == EXIT_PASS
            reports.append((buf.getvalue(), list(made)))
            made.clear()
        assert reports[0][0] == reports[1][0]
        assert (reports[0][1], reports[1][1]) == ([(2, 38), (3, 110)],
                                                  [(1, 14), (2, 38), (3, 110)])

    def test_index_past_maxsize_joins_no_union(self, monkeypatch):
        # at p = 3 beta-pairing reads the witness 3^n and hat 2·3^n terms.
        # The cells at n = 1 share a union; at n = 99999 the witness is past
        # sys.maxsize, so that call joins none (in the union it would make the
        # union raise) and, like hat's, raises alone: three calls in all
        made = []
        original = hyper._quotients
        for module in (hyper, verify):
            monkeypatch.setattr(module, "_quotients", lambda *args: made.append(args[2]) or
                                original(*args))
        cfg = SuiteConfig(p_list=[3], n_list=[1, 99999], c_list=[Fraction(4)],
                          checks=["beta-pairing", "hat"])
        buf = io.StringIO()
        assert run_suite(cfg, stream=buf) == EXIT_PASS
        assert "skipped 2 incompatible grid cells" in buf.getvalue()
        assert made == [1, 99999, 99999]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_union_gives_each_cell_its_own_line(self, jobs, tmp_path, monkeypatch):
        # A_18 is off by one in every walk, so at p = 3, n = 2 the numerator
        # of B_18 is not divisible by 3^2: each triple's union, whose walk
        # runs to integrality's 2p^n = 18, raises, and each call is then built
        # on its own, as above the bound.  The pool's workers are forked with
        # the patches in place
        original = hyper._walk

        def corrupt(a, p, runs, s, w):
            out, at = original(a, p, runs, s, w), 0
            for start, last in runs:
                if start <= 18 <= last:
                    out[at + 18 - start] += 1
                at += last - start + 1
            return out

        made = []
        quotients = hyper._quotients
        monkeypatch.setattr(hyper, "_walk", corrupt)
        for module in (hyper, verify):  # a union's call and a step's own call
            monkeypatch.setattr(module, "_quotients", lambda *args: made.append(args[2]) or
                                quotients(*args))
        runs = []
        for limit in (hyper._UNION_ENTRIES, 0):
            monkeypatch.setattr(hyper, "_UNION_ENTRIES", limit)
            out = tmp_path / f"{limit}.jsonl"
            cfg = SuiteConfig(p_list=[3], a_list=[Fraction(1, 2)], s_list=[1, 2], n_list=[2],
                              c_list=[Fraction(4)], checks=list(cli.CHECKS), out=str(out),
                              jobs=jobs if limit else 1)
            buf = io.StringIO()
            runs.append((run_suite(cfg, stream=buf), buf.getvalue(), out.read_bytes(),
                         len(made)))
            made.clear()
        # serially, per triple (s = 1, 2): the union of the three calls at
        # c = 1 and the six at c = 4, which raises, then each of the nine
        # calls; above the bound one call per cell, 3 + 6.  Through the pool
        # each triple is a task and no call is counted here
        assert runs[0][:3] == runs[1][:3] and runs[0][0] == EXIT_FAIL
        assert (runs[0][3], runs[1][3]) == (2 * (1 + 9) if jobs == 1 else 0, 2 * (3 + 6))
        lines = [json.loads(line) for line in runs[0][2].decode().splitlines()]
        integrality = [line for line in lines if line["check"] == "integrality"]
        assert [line["first_failure"] for line in integrality] == [
            {"error": "numerator not divisible by 3^2"}] * 2
