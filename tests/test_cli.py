"""Command-line interface: formats, exit codes, and the selfcheck gate.

Everything runs in-process through main() except the subprocess tests
of the piped-output default: one through ``python -m covolume``, one
through the installed console script where it is on PATH.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import covolume
from covolume import bernoulli, cli, lattice, quadfield, serialize, survey
from covolume.errors import InternalDefect


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNuCommand:
    def test_json_record(self, capsys):
        code, out, err = run_cli(
            capsys, "nu", "--d", "3", "--n", "9", "--format", "json"
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["nu"] == "809/5746705367040"
        assert record["chi"] == "-809/5746705367040"
        assert record["d"] == 3 and record["disc"] == 3 and record["n"] == 9
        assert record["h"] == 1 and record["h_torsion"] == 1
        assert record["epsilon"] == {"kind": "exact", "lower": 2, "upper": 2}
        assert record["mult_lo"] == 1 and record["mult_hi"] == 1
        assert record["exact"] is True
        # byte-identity of the reparse-reprint cycle
        assert serialize.dumps(record) == lines[0]

    def test_csv_exact_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "nu", "--d", "3", "--n", "2", "--format", "csv"
        )
        assert code == 0
        header, row = out.splitlines()
        assert header == "d,disc,n,nu,chi,volume,h,h_torsion,r,epsilon,mult_lo,mult_hi,exact"
        assert row == "3,3,2,1/72,1/72,0.365540903744,1,1,1,irrelevant,2,2,true"

    def test_csv_interval_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "nu", "--d", "5", "--n", "3", "--format", "csv"
        )
        assert code == 0
        row = out.splitlines()[1]
        fields = tuple(row.split(","))
        assert fields[3] == "1/96..1/48"
        assert fields[4] == "-1/48..-1/96"
        assert fields[9] == "2..4"
        assert fields[10] == "" and fields[11] == ""
        assert fields[12] == "false"
        parsed = serialize.row_from_csv(fields)
        assert not parsed.exact
        assert serialize.row_to_csv(parsed) == fields

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "nu", "--d", "3", "--n", "2", "--format", "table"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split()[:4] == ["d", "disc", "n", "nu"]
        assert "1/72" in lines[1]

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="this Python has no int/str digit limit",
    )
    def test_past_int_str_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(
            capsys, "nu", "--d", "3", "--n", "101", "--format", "json"
        )
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit
        record = json.loads(out)
        sys.set_int_max_str_digits(0)
        try:
            nu = Fraction(record["nu"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert nu == lattice.nu(quadfield.from_squarefree_d(3), 101)

    def test_leaves_the_digit_limit_alone(self, capsys, monkeypatch):
        def forbidden(limit):
            raise AssertionError("the int/str digit limit was changed")

        monkeypatch.setattr(sys, "set_int_max_str_digits", forbidden, raising=False)
        code, out, err = run_cli(
            capsys, "nu", "--d", "3", "--n", "300", "--format", "json"
        )
        assert code == 0 and err == ""
        assert len(json.loads(out)["nu"]) > 10_000


class TestScanCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--n", "2", "--max-disc", "40", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(serialize.ROW_HEADER)
        assert len(lines) == 15  # 14 fields with |disc| <= 40
        discs = [int(line.split(",")[1]) for line in lines[1:]]
        assert discs == sorted(discs)

    def test_json_rows_parse_and_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--n", "3", "--max-disc", "30", "--format", "json"
        )
        assert code == 0
        for line in out.splitlines():
            record = json.loads(line)
            assert serialize.dumps(record) == line
            row = serialize.row_from_record(record)
            assert row.n == 3

    def test_rejects_small_limit(self, capsys):
        code, _, err = run_cli(
            capsys, "scan", "--n", "2", "--max-disc", "2", "--format", "json"
        )
        assert code == 2
        assert err.startswith("covolume:")


class FirstLineSpy:
    """A stdout that notes how many calls were made before its first line."""

    def __init__(self, calls):
        self.calls = calls
        self.first_line_after = None

    def write(self, s):
        if self.first_line_after is None and "\n" in s:
            self.first_line_after = len(self.calls)
        return len(s)

    def flush(self):
        pass


class TestScanStreams:
    """JSON and CSV scan rows are printed as each is computed."""

    def test_first_line_after_one_record(self, monkeypatch):
        calls = []
        real = lattice.covolume_result

        def counting(field, n):
            calls.append(field.d)
            return real(field, n)

        spy = FirstLineSpy(calls)
        monkeypatch.setattr(lattice, "covolume_result", counting)
        monkeypatch.setattr(sys, "stdout", spy)
        argv = ["scan", "--n", "3", "--max-disc", "100", "--format", "json"]
        assert cli.main(argv) == 0
        assert spy.first_line_after == 1
        assert len(calls) == len(quadfield.fields_with_disc_at_most(100))

    def test_first_line_after_one_field(self, monkeypatch):
        built = []
        real = quadfield._field_if_squarefree

        def counting(d):
            built.append(d)
            return real(d)

        spy = FirstLineSpy(built)
        monkeypatch.setattr(quadfield, "_field_if_squarefree", counting)
        monkeypatch.setattr(sys, "stdout", spy)
        argv = ["scan", "--n", "3", "--max-disc", "100", "--format", "json"]
        assert cli.main(argv) == 0
        # the ascending loop over |disc| builds Q(sqrt(-3)) and prints its
        # row before it factors the next candidate
        assert spy.first_line_after == 1

    @pytest.mark.parametrize("fmt, kept", [("json", 2), ("csv", 3)])
    def test_defect_mid_scan_keeps_printed_rows(
        self, capsys, monkeypatch, fmt, kept
    ):
        real = lattice.covolume_result
        seen = []

        def third_fails(field, n):
            seen.append(field)
            if len(seen) == 3:
                raise InternalDefect(f"injected at {field}")
            return real(field, n)

        monkeypatch.setattr(lattice, "covolume_result", third_fails)
        code, out, err = run_cli(
            capsys, "scan", "--n", "2", "--max-disc", "40", "--format", fmt
        )
        assert code == 1
        assert len(out.splitlines()) == kept
        assert err == "covolume: internal defect: injected at Q(sqrt(-7))\n"

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_bad_arguments_print_nothing(self, capsys, fmt):
        for argv in (
            ("--n", "1", "--max-disc", "40"),
            ("--n", "2", "--max-disc", "2"),
        ):
            code, out, err = run_cli(capsys, "scan", *argv, "--format", fmt)
            assert (code, out) == (2, ""), argv
            assert err.startswith("covolume:")

    def test_closed_pipe_exits_one_silently(self):
        # 280 kB of rows: far more than the pipe and stdout buffers hold
        proc = subprocess.Popen(
            [sys.executable, "-m", "covolume", "scan", "--n", "31",
             "--max-disc", "400", "--format", "csv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_package_env(),
        )
        assert proc.stdout.readline().startswith(b"d,disc,n,")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""


class TestMinimalCommand:
    def test_single_dimension_winner(self, capsys):
        code, out, _ = run_cli(
            capsys, "minimal", "--n", "2", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["d"] == 3
        assert record["nu"] == "1/72"

    def test_verbose_certificate(self, capsys):
        code, out, _ = run_cli(
            capsys, "minimal", "--n", "2", "--verbose", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["winner"]["d"] == 3
        assert record["limit"] == 24
        assert len(record["certificate"]) == 10
        by_d = {c["d"]: c for c in record["certificate"]}
        assert by_d[1]["nu"] == "1/32"

    def test_overall_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "minimal", "--overall", "--n-max", "12", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["n_star"] == 9
        assert record["volume_n_star"] == 9
        assert record["growth_threshold_n1"] == 11
        assert record["winner"]["nu"] == "809/5746705367040"
        assert "per_n" not in record

    def test_overall_verbose_includes_per_dimension_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "minimal",
            "--overall",
            "--n-max",
            "12",
            "--verbose",
            "--format",
            "json",
        )
        assert code == 0
        record = json.loads(out)
        assert [row["n"] for row in record["per_n"]] == list(range(2, 13))

    def test_overall_table_headline(self, capsys):
        code, out, _ = run_cli(
            capsys, "minimal", "--overall", "--n-max", "12", "--format", "table"
        )
        assert code == 0
        assert "overall minimum: n = 9" in out
        assert "every n >= 11" in out

    def test_flag_conflicts(self, capsys):
        code, _, err = run_cli(capsys, "minimal", "--overall", "--n", "5")
        assert code == 2
        assert "mutually exclusive" in err
        code, _, err = run_cli(capsys, "minimal")
        assert code == 2
        assert "required" in err


class TestGrowthCommand:
    def test_default_csv(self, capsys):
        code, out, _ = run_cli(capsys, "growth", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d,n,q,log_q_over_n,closed_form,rel_err"
        assert len(lines) == 12  # n = 2..12
        first = lines[1].split(",")
        assert first[:3] == ["3", "2", "1/90"]
        assert float(first[5]) < 1e-12
        n4 = lines[3].split(",")
        assert n4[2] == "1/210"

    def test_interval_field_emits_null_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "growth",
            "--d",
            "5",
            "--n-min",
            "2",
            "--n-max",
            "3",
            "--format",
            "json",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["q"] == {"lower": "1/180", "upper": "1/90"}
        assert records[0]["closed_form"] is None

    def test_internal_defect_exits_one(self, capsys, monkeypatch):
        closed_form = survey._closed_form_ratio
        monkeypatch.setattr(
            survey, "_closed_form_ratio", lambda f, n: 2 * closed_form(f, n)
        )
        code, out, err = run_cli(
            capsys, "growth", "--d", "3", "--n-min", "4", "--n-max", "4"
        )
        assert code == 1 and out == ""
        assert "internal defect" in err

    @pytest.mark.parametrize("n", ["199", "260"])
    def test_past_double_range_prints_inf(self, capsys, n):
        argv = ("growth", "--d", "3", "--n-min", n, "--n-max", n)
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and err == ""
        record = json.loads(out)
        assert record["closed_form"] == "inf"
        assert serialize.dumps(record) == out.rstrip("\n")
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0 and err == ""
        header, row = out.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["closed_form"] == "inf"

    @pytest.mark.parametrize(
        "d, n_min, n_max", [("43", "187", "190"), ("163", "139", "139")]
    )
    def test_l_value_past_double_range(self, capsys, d, n_min, n_max):
        # L(n + 2) at |D|^(n+2) past double range prints like any other
        # ratio past it
        argv = ("growth", "--d", d, "--n-min", n_min, "--n-max", n_max)
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and err == ""
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["closed_form"] == "inf"
        assert all(r["rel_err"] <= 1e-6 for r in records)

    def test_no_nu_and_each_small_factor_once(self, capsys, monkeypatch):
        # q(n) comes from F(n), F(n+1) and at odd n one L-factor pair,
        # with F(n+1) carried to the next step, so no nu is computed
        calls = []
        small = lattice._small_factor

        def counting(field, n):
            calls.append(n)
            return small(field, n)

        def forbidden(field, n):
            raise AssertionError("growth computed a nu")

        monkeypatch.setattr(lattice, "_small_factor", counting)
        monkeypatch.setattr(lattice, "nu", forbidden)
        code, _, _ = run_cli(
            capsys, "growth", "--d", "3", "--n-min", "2", "--n-max", "40"
        )
        assert code == 0
        assert sorted(calls) == list(range(2, 42))  # 40 factors for 39 ratios

    def test_rejects_inverted_range(self, capsys):
        code, _, err = run_cli(
            capsys, "growth", "--n-min", "5", "--n-max", "4"
        )
        assert code == 2
        assert "covolume:" in err

    @pytest.mark.parametrize("n_min", ["1", "0", "-1"])
    def test_rejects_start_below_two(self, capsys, n_min):
        # the run's first F(n) checks n, before any row or CSV header
        for fmt in ("json", "csv", "table"):
            code, out, err = run_cli(
                capsys, "growth", "--d", "3", "--n-min", n_min, "--n-max", "4",
                "--format", fmt,
            )
            assert code == 2 and out == "", fmt
            assert "covolume:" in err and "Traceback" not in err


class TestGrowthStreams:
    """JSON and CSV growth rows are printed as each is computed."""

    def test_first_line_after_one_report(self, monkeypatch):
        calls = []
        real = survey._growth_report

        def counting(field, n, denom, numer):
            calls.append(n)
            return real(field, n, denom, numer)

        spy = FirstLineSpy(calls)
        monkeypatch.setattr(survey, "_growth_report", counting)
        monkeypatch.setattr(sys, "stdout", spy)
        argv = ["growth", "--d", "3", "--n-min", "2", "--n-max", "40"]
        assert cli.main([*argv, "--format", "json"]) == 0
        assert spy.first_line_after == 1
        assert calls == list(range(2, 41))

    @pytest.mark.parametrize("fmt, kept", [("json", 2), ("csv", 3)])
    def test_defect_mid_run_keeps_printed_rows(self, capsys, monkeypatch, fmt, kept):
        real = survey._growth_report

        def third_fails(field, n, denom, numer):
            if n == 4:
                raise InternalDefect(f"injected at n = {n}")
            return real(field, n, denom, numer)

        monkeypatch.setattr(survey, "_growth_report", third_fails)
        code, out, err = run_cli(
            capsys, "growth", "--d", "3", "--n-min", "2", "--n-max", "9",
            "--format", fmt,
        )
        assert code == 1
        assert len(out.splitlines()) == kept
        assert err == "covolume: internal defect: injected at n = 4\n"


class TestHwangCommand:
    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "hwang", "--n", "2", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["n"] == 2 and record["k"] == 1
        assert abs(record["bound"] - 1.193602951) <= 1e-9

    def test_csv_with_cusps(self, capsys):
        code, out, _ = run_cli(
            capsys, "hwang", "--n", "2", "--k", "3", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["n,k,bound", "2,3,3.580808853"]

    def test_past_double_range_prints_zero(self, capsys):
        code, out, err = run_cli(capsys, "hwang", "--n", "400", "--format", "json")
        assert code == 0 and err == ""
        assert out == '{"n": 400, "k": 1, "bound": 0}\n'

    @pytest.mark.parametrize(
        "n, k, bound",
        [(2, 2**1024, "inf"), (500, 2**1024, "0"), (2, int(1.7e308), "inf")],
        ids=["overflow", "underflow", "product-overflow"],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_cusp_count_past_double_range(self, capsys, n, k, bound, fmt):
        code, out, err = run_cli(
            capsys, "hwang", "--n", str(n), "--k", str(k), "--format", fmt
        )
        assert code == 0 and err == ""
        if fmt == "json":
            cells = [str(v) for v in json.loads(out).values()]
        else:
            cells = out.splitlines()[1].replace(",", " ").split()
        assert cells == [str(n), str(k), bound]

    def test_rejects_bad_arguments(self, capsys):
        assert run_cli(capsys, "hwang", "--n", "1")[0] == 2
        assert run_cli(capsys, "hwang", "--n", "2", "--k", "0")[0] == 2


class TestClassgroupCommand:
    def test_json_with_orders(self, capsys):
        code, out, _ = run_cli(
            capsys, "classgroup", "--d", "23", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["h"] == 3
        assert record["torsion"] is None
        assert record["classes"] == [
            {"a": 1, "b": 1, "c": 6, "order": 1},
            {"a": 2, "b": -1, "c": 3, "order": 3},
            {"a": 2, "b": 1, "c": 3, "order": 3},
        ]

    def test_torsion_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "classgroup", "--d", "23", "--m", "3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["torsion"] == {"m": 3, "count": 3}

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "classgroup", "--d", "23", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,b,c,order"
        assert len(lines) == 4

    def test_rejects_non_squarefree(self, capsys):
        code, _, err = run_cli(capsys, "classgroup", "--d", "12")
        assert code == 2
        assert "square factor" in err


class TestSelfcheckCommand:
    def test_quick_passes(self, capsys):
        code, out, err = run_cli(capsys, "selfcheck", "--quick")
        assert code == 0
        assert err == ""
        assert "ok: 3 checks" in out

    def test_full_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selfcheck")
        assert code == 0
        assert "ok: 285 checks" in out

    def test_detects_injected_defect(self, capsys, monkeypatch):
        from fractions import Fraction

        real = bernoulli.bernoulli_number

        def skewed(k):
            value = real(k)
            if k == 2:
                return value * (1 + Fraction(1, 10**6))
            return value

        covolume.clear_caches()
        monkeypatch.setattr(bernoulli, "bernoulli_number", skewed)
        try:
            code, out, err = run_cli(capsys, "selfcheck", "--quick")
        finally:
            monkeypatch.undo()
            covolume.clear_caches()
        assert code == 1
        assert "FAIL" in out
        assert "selfcheck failure" in err
        assert "n = 2" in err

    def test_recovers_after_defect_run(self, capsys):
        code, out, _ = run_cli(capsys, "selfcheck", "--quick")
        assert code == 0

    def test_precision_env_tightens(self, capsys, monkeypatch):
        monkeypatch.setenv("COVOLUME_PRECISION", "1e-16")
        code, out, err = run_cli(capsys, "selfcheck", "--quick")
        assert code == 1
        assert "FAIL" in out and "1e-16" in out

    def test_precision_env_cannot_loosen(self, capsys, monkeypatch):
        monkeypatch.setenv("COVOLUME_PRECISION", "1.0")
        code, out, _ = run_cli(capsys, "selfcheck", "--quick")
        assert code == 0
        assert "tolerance 1e-09" in out

    @pytest.mark.parametrize("bad", ["abc", "-1e-9", "0", "nan"])
    def test_precision_env_rejects_garbage(self, capsys, monkeypatch, bad):
        monkeypatch.setenv("COVOLUME_PRECISION", bad)
        code, _, err = run_cli(capsys, "selfcheck", "--quick")
        assert code == 2
        assert "COVOLUME_PRECISION" in err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "nu", "--d", "3")[0] == 2

    def test_bad_format_choice(self, capsys):
        code, _, _ = run_cli(
            capsys, "nu", "--d", "3", "--n", "2", "--format", "yaml"
        )
        assert code == 2

    def test_domain_errors_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "nu", "--d", "12", "--n", "2")
        assert code == 2 and "covolume:" in err
        code, _, err = run_cli(capsys, "nu", "--d", "3", "--n", "1")
        assert code == 2 and "covolume:" in err

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


class TestEmitConvertsOnlyPrinted:
    """JSON prints records; CSV and table print the records' cells."""

    COMMANDS = (
        ("nu", "--d", "3", "--n", "9"),
        ("scan", "--n", "4", "--max-disc", "40"),
        ("growth", "--d", "5", "--n-min", "2", "--n-max", "6"),
    )

    @staticmethod
    def _forbid(monkeypatch, *names):
        def forbidden(*args):
            raise AssertionError("converter for an unprinted form called")

        for name in names:
            monkeypatch.setattr(serialize, name, forbidden)

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_json_builds_no_csv_row(self, capsys, monkeypatch, command):
        self._forbid(monkeypatch, "row_to_csv", "cells")
        code, out, _ = run_cli(capsys, *command, "--format", "json")
        assert code == 0
        assert all(json.loads(line) for line in out.splitlines())

    @staticmethod
    def _table_cells(lines):
        # a column starts where its header name starts
        starts = [m.start() for m in re.finditer(r"\S+", lines[0])]
        bounds = list(zip(starts, starts[1:] + [None]))
        return [tuple(line[a:b].strip() for a, b in bounds) for line in lines]

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_cells_are_the_json_record(self, capsys, monkeypatch, command, fmt):
        code, out, _ = run_cli(capsys, *command, "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        self._forbid(monkeypatch, "dumps")
        code, out, _ = run_cli(capsys, *command, "--format", fmt)
        assert code == 0
        lines = out.splitlines()
        if fmt == "csv":
            rows = [tuple(line.split(",")) for line in lines]
        else:
            rows = self._table_cells(lines)
        assert rows[0] == tuple(records[0])
        assert rows[1:] == [tuple(map(_flatten, r.values())) for r in records]


def _flatten(value):
    """The cell of a JSON record value: the flattening rule, written out."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, dict) and "kind" in value:
        return serialize.format_epsilon(lattice.EpsilonStatus(**value))
    if isinstance(value, dict):
        return f"{_flatten(value['lower'])}..{_flatten(value['upper'])}"
    return str(value)


# SHA-256 of stdout for a fixed command set.  A refactor must leave every
# printed byte, and so every exact value, unchanged.
GOLDEN_STDOUT = {
    "nu --d 3 --n 9 --format json": "1c73e1a2fd0ca09edcaf46a6544309516bb004958e9e958ea85417695394e27a",
    "nu --d 3 --n 9 --format csv": "f980820ff1c5ca870cfd910636da5b976b256e7eeca5c2ce60941c8200e339ae",
    "nu --d 3 --n 9 --format table": "566631c4b0fa730ea3ec636207cb03ff3452f8dd1b858bd6deb06fe6deb3615e",
    "scan --n 2 --max-disc 100 --format csv": "1768a6669b95b630399ad60b03cd8f2e08297d2a45ad78b3937ef9bb66d218db",
    "scan --n 11 --max-disc 300 --format csv": "f7d81290bd92027f5b04439dbf8409a200f6de6f5235fa504e8792567e21cfb1",
    "scan --n 10 --max-disc 600 --format json": "195bd27b97114748028f686c2ca642f9132c6126bcf36511a7786523b2b6a88c",
    "scan --n 2 --max-disc 1500 --format json": "ddd43713c92dab681815be5f8e8b2823746dd043d0dbead7d9b29af0c1094615",
    "scan --n 5 --max-disc 1500 --format csv": "2fb4d9670c69f539af6e6021f424458eed5ab2e23205cbbf18471ee27c73b06f",
    "minimal --n 4 --verbose": "2aabe577b42bb04402bd76052401c29b46bebc0be49db06a9bd28002a1713d60",
    "minimal --overall --n-max 30 --verbose": "fb9a306ef749ed1dbe30cd96d9e827429bae6c7a9f0f90f5fbaf4ce7973d07b7",
    "growth --d 3 --n-max 20": "df394470eae987c986107d3e22edd63894fd2b42aacd5e22dfa691ebab78231c",
    "classgroup --d 23 --m 3": "25ac635ae9682dafd3cb214053ba1ea76faa8b952c0cfc81003a767d0d7e5d43",
    "selfcheck --quick": "c418bd3e3592bc184482d134592f5798811f9af27016d6c2c24d9f12f557fc5c",
    "minimal --overall --n-max 60 --verbose --format csv": "2f400c779242bb6f89870ad3977063734ebfbaf44df7733ae9807102ccf03ca0",
    "growth --d 5 --n-min 2 --n-max 40 --format csv": "ad6202082d2be2d4f2dac04a7dd9c4f5b2a8eb995ba285d5400efa554766014c",
    "nu --d 3 --n 250 --format json": "4a3ec4c8dcd2ccc5d68fff0566ea17b7c11eed400ddfec024e435e387b2f6c9c",
    "growth --d 3 --n-min 2 --n-max 40 --format table": "a90cc1ef2997740c2f021ed53140ab170ddf17d3d6eee1dc70a8344500e4ead2",
    "hwang --n 6 --k 3 --format csv": "ded72b272e366fffa26617351339848ff4cdb72e6ebb92e51c75e69981daadbd",
    "nu --d 3 --n 400 --format json": "34ce6ae4d8383f9f07013db9573df156b69314e013421e9297627db6bfd12830",
    "nu --d 3 --n 400 --format csv": "1bff03d13ac704f3c3a84fa4441970c8f700807b53508a41a102254b8177abcc",
    "nu --d 15 --n 301 --format table": "4304bb60de82b84b0b076d05afaec92c6a8f9579529cd2a07b65cfc0114edbf1",
    "growth --d 3 --n-min 300 --n-max 302 --format json": "16f8a4db4e62881f47812c421cb18de27ffa86583efc8e7416376051094c44ae",
    "minimal --n 4 --format json": "36822a9ae3f64803448fdb1e905701721cfb0c5405351151307cde8a96e709fe",
    "minimal --n 4 --verbose --format csv": "0f54852b44e395c2feec44e4a1c51e6f01c1bc1a8140fd1a6e74abf4e93c09eb",
    "minimal --n 4 --verbose --format table": "58259686b18346c2b42dfc257633a6e08f1d0dcbd763c4655c19884afe0df5a7",
    "minimal --overall --n-max 30 --format csv": "f980820ff1c5ca870cfd910636da5b976b256e7eeca5c2ce60941c8200e339ae",
    "minimal --overall --n-max 30 --format table": "fdffb5fd59c514656d167827d21c675f6d512fd8b76adc322a14cbf93144dfc4",
    "minimal --overall --n-max 30 --verbose --format table": "98729c44c08405fbe68c3e81e868373b96509e2d3cd2ba77bbbf0b3a25d674b4",
    "classgroup --d 23 --m 3 --format csv": "144436665072689df046ff102e074add4653d432fb6f7a0831a1f91066c6d9f4",
    "classgroup --d 23 --m 3 --format table": "a560cffebf07f720541cd79b5b020d63147ee2aff9d4ac6c5335420629c43ef0",
    "classgroup --d 5 --format table": "b4b2f0153946bbe4884a69f41ec7882b3dcd23cd23d33394e54b3c8663686f76",
    "growth --d 3 --n-min 196 --n-max 261 --format csv": "40e19f7ca3aeed107a26b5d27ff502f40782eb51bbdbb04a2ca3289715294450",
    "growth --d 7 --n-min 164 --n-max 169 --format json": "8afdba10f66407b2b4ef5c3043683d08232548f3bc77527e92a4a3dd72a6e3fa",
    "hwang --n 6 --k 3 --format json": "e24cd14d299accec2b7282fd0416c238f81557346d1283e8085ae182fc5354d4",
    "hwang --n 2 --format table": "15e27c826016cc9836c2d0c33c40cb5d52234c697ea21b1ca129c16315b0863f",
    "growth --d 5 --n-min 2 --n-max 8 --format table": "d3576ab0bcf05203a64fb2571a2a7efc48aa49e5038c349f7a3a10d4c5787ba4",
    "scan --n 3 --max-disc 60 --format table": "a62d2631f088c4411ffeae391dc52d9abfa4e583511fc95008d0997277dc2f54",
    "scan --n 31 --max-disc 400 --format json": "429b1c0e4e60c4ce004ae09334738cd50d3a09713e1b59bf3f5c40d9e84c6838",
    "scan --n 2 --max-disc 3000 --format csv": "952393bfb0fb13e4e6444ac5233f3adf5e8ca3872da371035e10a3fef24c9aa3",
    "scan --n 11 --max-disc 600 --format json": "67e70ffa96d0ee36e65c36e9b3847fd70444b4dd50eb28985e4857cd56a1f654",
    "nu --d 15015 --n 10 --format json": "6206de448acac6bbde505ef6070a94d91d1405bf8bc7827758d8281ab7ad7ff8",
    "growth --d 3 --n-min 2 --n-max 400 --format json": "52e3849715d2aa73f300e79b04fc60b18b63b67bf778e5d8b13c376282a830ea",
    "growth --d 15 --n-min 2 --n-max 40 --format json": "18ec4d5ce0d0b7be5d5ef92cd1d0b87b4b051752c2c3009adf983686c56b8152",
    "minimal --overall --n-max 120 --verbose --format json": "ecb144cd637a75562941b4aeab81ac161f54d2a967ccfeb251a3c8d01e19c5f1",
    "scan --n 9 --max-disc 1000 --format csv": "ecd312ab237ce7fd1f3e7819f469ea12677bc3119bc34db71207348a05a7f03d",
    "growth --d 105 --n-min 2 --n-max 60 --format json": "fcaaf1b346e3e3723d65e0f7511d02f3a440130284454edcf13491cabf158ac7",
    "minimal --overall --n-max 240 --format json": "ddb0a2abae12c809631eca15bf113d0be211efbb8ec392c06a2db214f62f13d3",
    "minimal --overall --n-max 480 --format json": "ddb0a2abae12c809631eca15bf113d0be211efbb8ec392c06a2db214f62f13d3",
    "minimal --n 2 --verbose --format json": "2890ec08c4d5ed466f762964930b1df24231f677a79e7a7277b76fe2777af587",
    "minimal --n 3 --verbose --format csv": "71037368ca47fb7bb96d03db47855103847158f9735996f0b566cae843edfe8f",
    "minimal --overall --n-max 120 --safety-margin 400 --format json": "ddb0a2abae12c809631eca15bf113d0be211efbb8ec392c06a2db214f62f13d3",
    "minimal --overall --n-max 1000 --format json": "ddb0a2abae12c809631eca15bf113d0be211efbb8ec392c06a2db214f62f13d3",
}

# `python -m covolume nu --d 3 --n 300` (58k digits per value) under
# the lowest int/str digit limit Python allows; the CLI must print it
# without touching the limit.
GOLDEN_LOW_LIMIT = {
    "json": "f882ad5d9fc0e6ab4018c4d9c7a159f1035344123b48b248666b43d9731a418c",
    "csv": "eac41d2b20ff294dda84498b683e1f64a3d922974d4442039689672aa1d49a81",
    "table": "9b84fe1afb721cb69d469d1201658949146d0efd35f1ffa9b6836e8c8fc3d191",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_stdout_bytes_unchanged(command, capsys, monkeypatch):
    monkeypatch.delenv("COVOLUME_PRECISION", raising=False)
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


def _package_env(**extra):
    package_root = os.path.dirname(os.path.dirname(covolume.__file__))
    path = [package_root, os.environ.get("PYTHONPATH", "")]
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, path)),
        **extra,
    }


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this Python has no int/str digit limit",
)
@pytest.mark.parametrize("fmt", sorted(GOLDEN_LOW_LIMIT))
def test_stdout_bytes_under_lowest_digit_limit(fmt):
    argv = ["nu", "--d", "3", "--n", "300", "--format", fmt]
    proc = subprocess.run(
        [sys.executable, "-m", "covolume", *argv],
        capture_output=True,
        timeout=120,
        env=_package_env(PYTHONINTMAXSTRDIGITS="640"),
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_LOW_LIMIT[fmt]


class TestParserReuse:
    def test_two_mains_build_one_parser(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            assert run_cli(capsys, "nu", "--d", "3", "--n", "2")[0] == 0
            assert run_cli(capsys, "hwang", "--n", "6")[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_default_format_resolved_per_call(self, capsys, monkeypatch):
        for fmt, first in (("table", "d  "), ("json", "{"), ("csv", "d,disc")):
            monkeypatch.setattr(cli, "_default_format", lambda fmt=fmt: fmt)
            code, out, _ = run_cli(capsys, "nu", "--d", "3", "--n", "2")
            assert code == 0 and out.startswith(first), fmt


def check_piped_json(argv, env=None):
    proc = subprocess.run(
        [*argv, "nu", "--d", "3", "--n", "2"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("{")
    record = json.loads(proc.stdout)
    assert record["nu"] == "1/72"


class TestConsoleScript:
    def test_piped_output_defaults_to_json(self):
        # runs cli.run, the script's entry function, on the imported package
        check_piped_json([sys.executable, "-m", "covolume"], _package_env())

    @pytest.mark.skipif(
        shutil.which("covolume") is None, reason="covolume script not installed"
    )
    def test_installed_script_pipes_json(self):
        check_piped_json([shutil.which("covolume")])

    def test_script_wired_to_run(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["covolume"] == "covolume.cli:run"
