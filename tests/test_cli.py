import csv
import io
import json
import os
import subprocess
import sys
from decimal import MAX_PREC, Decimal
from pathlib import Path

import pytest

from birthdeath.cli import main

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_time_json_omega1(capsys):
    code, out, _ = run_cli(
        capsys, "time", "--lambda", "1", "--mu", "n", "--imax", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "StableSeries"
    assert payload["classification"] == "Finite"
    assert payload["precision"] == {"mode": "machine", "digits": None}
    assert oracles.rel_err_decimal(payload["omega"][1], oracles.OMEGA_1) < 1e-12
    assert payload["violations"] == []


def test_prob_json_geometric(capsys):
    code, out, _ = run_cli(
        capsys, "prob", "--lambda", "2", "--mu", "1", "--imax", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == ["1.0", "0.5", "0.25", "0.125"]
    assert payload["d"] == ["0.5", "0.25", "0.125"]
    assert payload["classification"] == "Uncertain"
    assert payload["series_sum"] == "2.0"
    assert payload["terms_used"] > 0


def test_prob_naive_flag(capsys):
    code, out, _ = run_cli(
        capsys, "prob", "--lambda", "2", "--mu", "1", "--imax", "2",
        "--naive", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["method"] == "NaiveRecursion"


def test_json_round_trip_idempotent(capsys):
    _, out, _ = run_cli(
        capsys, "time", "--lambda", "1", "--mu", "n", "--imax", "3", "--format", "json"
    )
    once = json.dumps(json.loads(out), indent=2)
    twice = json.dumps(json.loads(once), indent=2)
    assert once == twice


def test_csv_and_json_numeric_payloads_identical(capsys):
    args = ["prob", "--lambda", "2", "--mu", "1", "--imax", "5"]
    _, json_out, _ = run_cli(capsys, *args, "--format", "json")
    _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
    payload = json.loads(json_out)
    rows = list(csv.reader(io.StringIO(csv_out)))
    assert rows[0] == ["index", "a", "d"]
    a_csv = [row[1] for row in rows[1:]]
    d_csv = [row[2] for row in rows[1:]]
    assert a_csv == payload["a"]
    assert d_csv[0] == "" and d_csv[1:] == payload["d"]
    # RFC 4180 line endings
    assert "\r\n" in csv_out


def test_csv_time_format(capsys):
    _, out, _ = run_cli(
        capsys, "time", "--lambda", "1", "--mu", "2", "--imax", "2", "--format", "csv"
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "omega", "delta"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]


def test_table_format_mentions_method_and_classification(capsys):
    _, out, _ = run_cli(capsys, "time", "--lambda", "1", "--mu", "2", "--imax", "2")
    assert "method: StableSeries" in out
    assert "classification: Finite" in out
    assert "omega" in out


def test_extended_digits_survive_serialization(capsys):
    _, out, _ = run_cli(
        capsys, "time", "--lambda", "1", "--mu", "n", "--imax", "1",
        "--digits", "40", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["precision"] == {"mode": "extended", "digits": 40}
    value = Decimal(payload["omega"][1])
    assert oracles.rel_err_decimal(str(value), oracles.OMEGA_1) < 1e-34


def test_infinite_time_serializes_as_inf(capsys):
    code, out, _ = run_cli(
        capsys, "time", "--lambda", "1", "--mu", "1", "--imax", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "Infinite"
    assert payload["omega"][1] == "inf"


def test_not_certain_extinction_classification(capsys):
    code, out, _ = run_cli(
        capsys, "time", "--lambda", "2", "--mu", "1", "--imax", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["classification"] == "NotCertainExtinction"


def test_compare_reports_first_breakdown(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--lambda", "1", "--mu", "n", "--imax", "25", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["quantity"] == "time"
    assert payload["first_breakdown_index"] is not None
    assert payload["first_breakdown_index"] <= 25
    assert len(payload["relative_deviation"]) == 26
    assert payload["stable"]["method"] == "StableSeries"
    assert payload["naive"]["method"] == "NaiveRecursion"


def test_compare_prob_quantity(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--lambda", "2", "--mu", "1", "--imax", "5",
        "--quantity", "prob", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["stable"]["a"] == payload["naive"]["a"]
    assert payload["first_breakdown_index"] is None


def test_compare_handles_infinite_times(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--lambda", "1", "--mu", "1", "--imax", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "Infinite"
    assert payload["stable"]["omega"][1] == "inf"
    assert payload["relative_deviation"][1] == "0.0"


def test_compare_leaves_naive_cells_empty_past_the_naive_overflow(capsys):
    # the naive recursion overflows at index 179, so its column has 179 entries
    argv = ["compare", "--lambda", "1", "--mu", "n", "--imax", "300"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 301
    assert all(row[1] for row in rows)
    assert [row[0] for row in rows if row[2] == row[3] == ""] == [str(i) for i in range(179, 301)]
    code, out, _ = run_cli(capsys, *argv, "--format", "table")
    assert code == 0
    rows = [line.split() for line in out.split("\n\n", 1)[1].splitlines()[1:]]
    assert len(rows) == 301
    assert [row[0] for row in rows if len(row) == 2] == [str(i) for i in range(179, 301)]

def test_demo_instability_json(capsys):
    code, out, _ = run_cli(
        capsys, "demo-instability", "--lambda", "1", "--mu", "n",
        "--imax", "60", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    modes = [(e["mode"], e["digits"]) for e in payload["precisions"]]
    assert modes == [("machine", None), ("extended", 70)]
    machine, extended = payload["precisions"]
    assert machine["first_violation_index"] is not None
    assert machine["first_violation_index"] <= 25
    assert 45 <= extended["first_violation_index"] <= 60


def test_demo_instability_custom_digits(capsys):
    code, out, _ = run_cli(
        capsys, "demo-instability", "--lambda", "1", "--mu", "n",
        "--imax", "30", "--digits", "25", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["mode", "digits", "first_violation_index", "first_violation_kind"]
    assert [r[0] for r in rows[1:]] == ["machine", "extended"]
    assert rows[2][1] == "25"


def test_simulate_deterministic_output(capsys):
    args = [
        "simulate", "--lambda", "1", "--mu", "2", "--start", "1",
        "--runs", "500", "--time-cap", "50", "--seed", "9", "--format", "json",
    ]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["runs"] == 500
    assert payload["extinct_runs"] + payload["censored_runs"] == 500
    assert payload["seed"] == 9


def test_simulate_queries_rates_only_at_reached_states(capsys):
    # mu is not positive at n >= 24 (first) and n <= 3 (second); no run gets there
    for argv in (("--lambda", "1", "--mu", "24-n", "--start", "12"),
                 ("--lambda", "100", "--mu", "n-3", "--start", "12", "--time-cap", "0.05")):
        code, out, err = run_cli(capsys, "simulate", *argv, "--format", "json")
        assert code == 0, err
        assert json.loads(out)["runs"] == 100_000
    code, out, err = run_cli(
        capsys, "simulate", "--lambda", "5", "--mu", "24-n", "--start", "20", "--runs", "100"
    )
    assert code == 1
    assert err == "error: rate mu(n=24) = 0.0 is not positive; rates must be > 0\n"


def test_underflowed_series_term_is_not_convergence(capsys):
    # the terms underflow to 0 at machine precision, then grow without bound
    argv = ("prob", "--lambda", "1", "--mu", "1e-300*n^400", "--imax", "3", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["classification"] == "Inconclusive"
    code, out, _ = run_cli(capsys, *argv, "--digits", "30")
    assert code == 0
    assert json.loads(out)["classification"] == "Certain"


def test_exit_code_1_on_usage_error(capsys):
    code, _, err = run_cli(capsys, "prob", "--lambda", "1")
    assert code == 1
    assert "mu" in err.lower()


def test_exit_code_1_on_unknown_option(capsys):
    code, _, err = run_cli(capsys, "prob", "--lambda", "1", "--mu", "2", "--frobnicate")
    assert code == 1
    assert err


def test_exit_code_1_on_syntax_error_with_offset(capsys):
    code, _, err = run_cli(capsys, "prob", "--lambda", "2*", "--mu", "1")
    assert code == 1
    assert "offset" in err


def test_exit_code_1_on_bad_digits(capsys):
    code, _, err = run_cli(
        capsys, "time", "--lambda", "1", "--mu", "n", "--digits", "10"
    )
    assert code == 1
    assert "15" in err


def test_exit_code_1_on_non_positive_rate(capsys):
    code, _, err = run_cli(capsys, "prob", "--lambda", "n - 5", "--mu", "1")
    assert code == 1
    assert "positive" in err


def test_exit_code_2_on_inconclusive(capsys):
    code, out, _ = run_cli(
        capsys, "prob", "--lambda", "2*n + 3", "--mu", "2*n + 1",
        "--max-terms", "2000", "--format", "json",
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["classification"] == "Inconclusive"
    assert payload["a"] == []
    assert payload["terms_used"] == 2000


def test_tol_flag_tightens_truncation(capsys):
    _, out_loose, _ = run_cli(
        capsys, "time", "--lambda", "1", "--mu", "n", "--imax", "1",
        "--tol", "1e-3", "--format", "json",
    )
    _, out_tight, _ = run_cli(
        capsys, "time", "--lambda", "1", "--mu", "n", "--imax", "1",
        "--tol", "1e-14", "--format", "json",
    )
    loose = json.loads(out_loose)
    tight = json.loads(out_tight)
    assert loose["terms_used"] <= tight["terms_used"]


def test_low_confidence_infinite_in_time_payload(capsys):
    code, out, _ = run_cli(
        capsys, "time", "--lambda", "1", "--mu", "1.25 - 0.75*(-1)^n",
        "--imax", "3", "--max-terms", "1000", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "Infinite"
    assert payload["low_confidence"] is True
    assert payload["terms_used"] == 1000


def test_compare_computes_each_stable_report_once(capsys, monkeypatch):
    import birthdeath.cli
    import birthdeath.extinction
    import birthdeath.hitting_time

    calls = {"omega_stable": 0, "extinction_sum": 0}

    def counted(name, *modules):
        original = getattr(modules[0], name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        for module in modules:  # every site that looks the name up
            monkeypatch.setattr(module, name, wrapper)

    counted("omega_stable", birthdeath.cli, birthdeath.hitting_time)
    counted("extinction_sum", birthdeath.extinction)
    code, _, _ = run_cli(
        capsys, "compare", "--lambda", "1", "--mu", "n", "--imax", "10",
        "--quantity", "time", "--format", "json",
    )
    assert code == 0
    assert calls["omega_stable"] == 1
    calls["extinction_sum"] = 0
    code, _, _ = run_cli(
        capsys, "compare", "--lambda", "2", "--mu", "1", "--imax", "10",
        "--quantity", "prob", "--format", "json",
    )
    assert code == 0
    assert calls["extinction_sum"] == 1


def test_deep_nesting_is_a_syntax_error(capsys):
    for expr in ("(" * 2000 + "n" + ")" * 2000, "-" * 2000 + "n", "^".join(["n"] * 2000),
                 "+".join(["1"] * 2000), "*".join(["1"] * 2000)):
        code, out, err = run_cli(capsys, "time", "--lambda", "1", "--mu", expr)
        assert code == 1
        assert out == ""
        assert err.startswith("error: syntax error at offset")
        assert err.count("\n") == 1


def test_bad_tol_rejected(capsys):
    code, _, err = run_cli(
        capsys, "time", "--lambda", "1", "--mu", "n", "--tol", "2"
    )
    assert code == 1
    assert err


def test_underflowed_tol_is_named(capsys):
    # 1e-400 rounds to zero in binary64: it underflowed, it is not out of range
    args = ("time", "--lambda", "1", "--mu", "n", "--imax", "1", "--tol", "1e-400")
    assert run_cli(capsys, *args) == (
        1, "", "error: tolerance '1e-400' underflows the context\n")
    assert run_cli(capsys, *args, "--digits", "30")[0] == 0
    for zero in ("0", "0e-500"):
        assert run_cli(capsys, *args[:-1], zero) == (
            1, "", "error: rel_tol must satisfy 0 < rel_tol < 1\n")


def test_runs_as_a_module():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for module in ("birthdeath", "birthdeath.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "time", "--lambda", "1", "--mu", "n", "--imax", "1",
             "--format", "json"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), module
        assert json.loads(proc.stdout)["classification"] == "Finite"
    proc = subprocess.run([sys.executable, "-m", "birthdeath", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "birthdeath, version 0.1.0\n")


def test_bad_max_terms_rejected(capsys):
    code, _, err = run_cli(
        capsys, "prob", "--lambda", "2", "--mu", "1", "--max-terms", "10"
    )
    assert code == 1
    assert err


def test_max_terms_of_one_window_rejected(capsys):
    # a window of 64 ratios needs 65 terms, so 64 could never converge
    code, out, err = run_cli(
        capsys, "time", "--lambda", "1", "--mu", "2", "--imax", "3", "--max-terms", "64"
    )
    assert (code, out) == (1, "")
    assert err == "error: max_terms must be > 64\n"


def test_demo_instability_breakdown_indexes(capsys):
    code, out, _ = run_cli(
        capsys, "demo-instability", "--lambda", "1", "--mu", "n", "--imax", "60",
        "--digits", "70", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows == [["machine", "", "18", "non_monotone"], ["extended", "70", "54", "non_monotone"]]


def test_literal_overflowing_the_context_is_a_one_line_error(capsys):
    for argv in (
        ("--lambda", "1e999999999999", "--mu", "n", "--imax", "2", "--digits", "30"),
        ("--lambda", "1", "--mu", "n", "--imax", "2", "--digits", "30", "--tol", "1e999999999999"),
    ):
        code, out, err = run_cli(capsys, "time", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "literal '1e999999999999' overflows the context" in err


# Each request runs as ``time --mu n --imax 2`` plus these arguments, at
# machine precision and at 30 digits.  The literal, the negative base, 0/0
# and 0^0 do not depend on range, so both precisions must end alike.
_SAME_IN_BOTH = [
    ("--lambda", "1", "--tol", "nan"),
    ("--lambda", "1", "--tol", "inf"),
    ("--lambda", "1", "--tol", "abc"),
    ("--lambda", "1", "--tol", "1_000"),
    ("--lambda", "(-2)^0.5"),
    ("--lambda", "1+(n-1)/(n-1)"),
    ("--lambda", "1+0^0"),
    ("--lambda", "1+0^(-1)"),
    ("--lambda", "1e999999999999"),
]
_RANGE_DEPENDENT = [
    ("--lambda", "1e999"),
    ("--lambda", "exp(1000)"),
    ("--lambda", "10^400"),
]


def test_one_arithmetic_contract_for_both_precisions(capsys):
    def run(args, digits):
        return run_cli(capsys, "time", "--mu", "n", "--imax", "2", *args, *digits)

    for args in _SAME_IN_BOTH + _RANGE_DEPENDENT:
        for digits in ((), ("--digits", "30")):
            code, _, err = run(args, digits)
            for leak in ("math range error", "decimal.", "could not convert", "Python int"):
                assert leak not in err
            assert err.count("\n") == (code == 1)
    for args in _SAME_IN_BOTH:
        machine, extended = run(args, ()), run(args, ("--digits", "30"))
        assert (machine[0], machine[2]) == (extended[0], extended[2])
    assert run(("--lambda", "1+0^0"), ())[0] == 0
    assert run(("--lambda", "1+0^0"), ("--digits", "30"))[0] == 0
    assert run(("--lambda", "1+0^(-1)"), ())[2] == (
        "error: evaluation error at offset 3: zero raised to a negative power\n")
    assert run(("--lambda", "1", "--tol", "nan"), ())[2] == (
        "error: not a real number literal: 'nan'\n")
    for literal in ("1e999", "1e999999999999"):
        assert run(("--lambda", "1", "--tol", literal), ())[2] == (
            f"error: literal '{literal}' overflows the context\n")
    assert run(("--lambda", "1", "--tol", "1e999999999999"), ("--digits", "30"))[2] == (
        "error: literal '1e999999999999' overflows the context\n")
    # machine overflow reads the same from a literal, a function and an operator
    for args, where in ((("--lambda", "exp(1000)"), "0: exp: "), (("--lambda", "10^400"), "2: ")):
        assert run(args, ()) == (
            1, "", f"error: evaluation error at offset {where}operation overflowed machine precision\n")
        assert run(args, ("--digits", "30"))[0] == 0


def test_demo_instability_zero_power_is_one(capsys):
    args = ("--mu", "n", "--imax", "30", "--format", "csv")
    constant = run_cli(capsys, "demo-instability", "--lambda", "1", *args)
    assert constant[0] == 0
    assert run_cli(capsys, "demo-instability", "--lambda", "(n-1)^0", *args) == constant


def test_digits_out_of_range_are_named(capsys):
    for digits in (str(10 * MAX_PREC), str(MAX_PREC + 2)):
        code, out, err = run_cli(capsys, "time", "--lambda", "1", "--mu", "n", "--digits", digits)
        assert (code, out) == (1, "")
        assert err == f"error: extended mode requires 15 <= digits <= {MAX_PREC}, got {digits}\n"
    # the largest precision decimal allows builds, but nothing fits in memory
    code, out, err = run_cli(
        capsys, "time", "--lambda", "1", "--mu", "n", "--digits", str(MAX_PREC))
    assert (code, out, err) == (1, "", "error: MemoryError\n")


def test_simulate_too_many_runs_to_allocate(capsys):
    # 2^59 runs need 4 EiB of float64, beyond any 64-bit address space
    code, out, err = run_cli(capsys, "simulate", "--lambda", "1", "--mu", "2", "--runs", str(2**59))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "demo-instability" in out


# Exact exit status, stdout and stderr of small requests that together reach
# every payload builder and every output format: the CLI and the report
# payloads may be restructured, but not one byte of these may change.
_PINNED = [
    ('prob --lambda 2 --mu 1 --imax 3 --format json', 0,
        '{\n'
        '  "model": {\n'
        '    "lambda": "2",\n'
        '    "mu": "1"\n'
        '  },\n'
        '  "method": "StableSeries",\n'
        '  "classification": "Uncertain",\n'
        '  "precision": {\n'
        '    "mode": "machine",\n'
        '    "digits": null\n'
        '  },\n'
        '  "a": [\n'
        '    "1.0",\n'
        '    "0.5",\n'
        '    "0.25",\n'
        '    "0.125"\n'
        '  ],\n'
        '  "d": [\n'
        '    "0.5",\n'
        '    "0.25",\n'
        '    "0.125"\n'
        '  ],\n'
        '  "violations": [],\n'
        '  "terms_used": 65,\n'
        '  "series_sum": "2.0"\n'
        '}\n',
        ''),
    ('prob --lambda 3 --mu 1.1 --imax 3 --naive --format table', 0,
        'model: lambda = 3   mu = 1.1\n'
        'precision: machine\n'
        'method: NaiveRecursion\n'
        'classification: Uncertain\n'
        'series_sum: 1.5789473684210533\n'
        'terms_used: 65\n'
        '\n'
        'index  a                    d\n'
        '0      1.0\n'
        '1      0.3666666666666669   0.6333333333333331\n'
        '2      0.1344444444444448   0.2322222222222221\n'
        '3      0.04929629629629667  0.08514814814814814\n',
        ''),
    ('prob --lambda 2 --mu 1 --imax 2 --digits 30 --format csv', 0,
        'index,a,d\r\n'
        '0,1,\r\n'
        '1,0.499999999999999999999999999975,0.500000000000000000000000000025\r\n'
        '2,0.249999999999999999999999999962,0.250000000000000000000000000013\r\n',
        ''),
    ('time --lambda 1 --mu n --imax 3 --format json', 0,
        '{\n'
        '  "model": {\n'
        '    "lambda": "1",\n'
        '    "mu": "n"\n'
        '  },\n'
        '  "method": "StableSeries",\n'
        '  "classification": "Finite",\n'
        '  "precision": {\n'
        '    "mode": "machine",\n'
        '    "digits": null\n'
        '  },\n'
        '  "delta": [\n'
        '    "1.718281828459045",\n'
        '    "0.7182818284590452",\n'
        '    "0.4365636569180904"\n'
        '  ],\n'
        '  "omega": [\n'
        '    "0.0",\n'
        '    "1.718281828459045",\n'
        '    "2.43656365691809",\n'
        '    "2.8731273138361804"\n'
        '  ],\n'
        '  "violations": [],\n'
        '  "terms_used": 65\n'
        '}\n',
        ''),
    ('time --lambda 1 --mu n --imax 3 --naive --format csv', 0,
        'index,omega,delta\r\n'
        '0,0.0,1.718281828459045\r\n'
        '1,1.718281828459045,0.7182818284590451\r\n'
        '2,2.43656365691809,0.4365636569180902\r\n'
        '3,2.8731273138361804,\r\n',
        ''),
    ('time --lambda 1 --mu 2 --imax 2 --digits 30 --format table', 0,
        'model: lambda = 1   mu = 2\n'
        'precision: extended, 30 digits\n'
        'method: StableSeries\n'
        'classification: Finite\n'
        'terms_used: 94\n'
        '\n'
        'index  omega                             delta\n'
        '0      0                                 0.999999999999999999999999999975\n'
        '1      0.999999999999999999999999999975  0.999999999999999999999999999950\n'
        '2      1.99999999999999999999999999992\n',
        ''),
    ('compare --lambda 1 --mu n --imax 3 --format table', 0,
        'model: lambda = 1   mu = n\n'
        'precision: machine\n'
        'classification: Finite\n'
        'first_breakdown_index: None\n'
        '\n'
        'index  stable_omega        naive_omega         relative_deviation\n'
        '0      0.0                 0.0                 0.0\n'
        '1      1.718281828459045   1.718281828459045   0.0\n'
        '2      2.43656365691809    2.43656365691809    0.0\n'
        '3      2.8731273138361804  2.8731273138361804  0.0\n',
        ''),
    ('compare --lambda 3 --mu 1.1 --imax 3 --quantity prob --format json', 0,
        '{\n'
        '  "model": {\n'
        '    "lambda": "3",\n'
        '    "mu": "1.1"\n'
        '  },\n'
        '  "quantity": "prob",\n'
        '  "classification": "Uncertain",\n'
        '  "precision": {\n'
        '    "mode": "machine",\n'
        '    "digits": null\n'
        '  },\n'
        '  "stable": {\n'
        '    "method": "StableSeries",\n'
        '    "a": [\n'
        '      "1.0",\n'
        '      "0.3666666666666669",\n'
        '      "0.13444444444444478",\n'
        '      "0.04929629629629667"\n'
        '    ]\n'
        '  },\n'
        '  "naive": {\n'
        '    "method": "NaiveRecursion",\n'
        '    "a": [\n'
        '      "1.0",\n'
        '      "0.3666666666666669",\n'
        '      "0.1344444444444448",\n'
        '      "0.04929629629629667"\n'
        '    ],\n'
        '    "violations": []\n'
        '  },\n'
        '  "relative_deviation": [\n'
        '    "0.0",\n'
        '    "0.0",\n'
        '    "2.0644643019889223e-16",\n'
        '    "0.0"\n'
        '  ],\n'
        '  "first_breakdown_index": null\n'
        '}\n',
        ''),
    ('demo-instability --lambda 1 --mu n --imax 3 --format csv', 0,
        'mode,digits,first_violation_index,first_violation_kind\r\n'
        'machine,,,\r\n'
        'extended,70,,\r\n',
        ''),
    ('prob --lambda 2*n+3 --mu 2*n+1 --imax 2 --max-terms 100 --format json', 2,
        '{\n'
        '  "model": {\n'
        '    "lambda": "2*n+3",\n'
        '    "mu": "2*n+1"\n'
        '  },\n'
        '  "method": "StableSeries",\n'
        '  "classification": "Inconclusive",\n'
        '  "precision": {\n'
        '    "mode": "machine",\n'
        '    "digits": null\n'
        '  },\n'
        '  "a": [],\n'
        '  "d": [],\n'
        '  "violations": [],\n'
        '  "terms_used": 100\n'
        '}\n',
        ''),
    ('time --lambda 2*n+3 --mu 2*n+1 --imax 2 --max-terms 100 --naive --format json', 2,
        '{\n'
        '  "model": {\n'
        '    "lambda": "2*n+3",\n'
        '    "mu": "2*n+1"\n'
        '  },\n'
        '  "method": "NaiveRecursion",\n'
        '  "classification": "Inconclusive",\n'
        '  "precision": {\n'
        '    "mode": "machine",\n'
        '    "digits": null\n'
        '  },\n'
        '  "delta": [],\n'
        '  "omega": [],\n'
        '  "violations": [],\n'
        '  "terms_used": 100\n'
        '}\n',
        ''),
    ('demo-instability --lambda 2*n+3 --mu 2*n+1 --imax 3 --max-terms 100', 2,
        'model: lambda = 2*n+3   mu = 2*n+1\n'
        '\n'
        'mode      digits  first_violation_index  first_violation_kind\n'
        'machine\n'
        'extended  70\n',
        ''),
    ('prob --lambda n-5 --mu 1 --imax 3', 1,
        '',
        'error: rate lambda(n=1) = -4.0 is not positive; rates must be > 0\n'),
    ('time --lambda 1 --mu log(n-1) --imax 3', 1,
        '',
        'error: evaluation error at offset 0: log: log of a non-positive value\n'),
    ('simulate --lambda 1 --mu 2 --runs 20 --seed 1 --format json', 0,
        '{\n'
        '  "model": {\n'
        '    "lambda": "1",\n'
        '    "mu": "2"\n'
        '  },\n'
        '  "precision": {\n'
        '    "mode": "machine",\n'
        '    "digits": null\n'
        '  },\n'
        '  "start_state": 1,\n'
        '  "runs": 20,\n'
        '  "extinct_runs": 20,\n'
        '  "censored_runs": 0,\n'
        '  "seed": 1,\n'
        '  "time_cap": "100.0",\n'
        '  "extinction_probability_estimate": "1.0",\n'
        '  "mean_time_estimate": "0.7174780742728111",\n'
        '  "std_error_time": "0.17818077489522927",\n'
        '  "std_error_prob": "0.0"\n'
        '}\n',
        ''),
    ('compare --lambda 2*n+3 --mu 2*n+1 --imax 2 --max-terms 100 --format json', 2,
        '{\n'
        '  "model": {\n'
        '    "lambda": "2*n+3",\n'
        '    "mu": "2*n+1"\n'
        '  },\n'
        '  "method": "StableSeries",\n'
        '  "classification": "Inconclusive",\n'
        '  "precision": {\n'
        '    "mode": "machine",\n'
        '    "digits": null\n'
        '  },\n'
        '  "delta": [],\n'
        '  "omega": [],\n'
        '  "violations": [],\n'
        '  "terms_used": 100\n'
        '}\n',
        ''),
    ('simulate --lambda 1 --mu 2 --runs 20 --seed 1 --format csv', 0,
        'start_state,runs,extinct_runs,censored_runs,seed,time_cap,extinction_probability_estimate,mean_time_estimate,std_error_time,std_error_prob\r\n'
        '1,20,20,0,1,100.0,1.0,0.7174780742728111,0.17818077489522927,0.0\r\n',
        ''),
    ('simulate --lambda 1 --mu 2 --runs 20 --seed 1 --format table', 0,
        'model: lambda = 1   mu = 2\n'
        'precision: machine\n'
        '\n'
        'start_state  runs  extinct_runs  censored_runs  seed  time_cap  extinction_probability_estimate  mean_time_estimate  std_error_time       std_error_prob\n'
        '1            20    20            0              1     100.0     1.0                              0.7174780742728111  0.17818077489522927  0.0\n',
        ''),
    ('time --lambda 1 --mu 1.25-0.75*(-1)^n --imax 2 --max-terms 200 --format table', 0,
        'model: lambda = 1   mu = 1.25-0.75*(-1)^n\n'
        'precision: machine\n'
        'method: StableSeries\n'
        'classification: Infinite\n'
        'terms_used: 200\n'
        'low_confidence: true\n'
        '\n'
        'index  omega  delta\n'
        '0      0.0    inf\n'
        '1      inf    inf\n'
        '2      inf\n',
        ''),
    ('prob --lambda 7 --mu 1 --imax 22 --naive --format table', 0,
        'model: lambda = 7   mu = 1\n'
        'precision: machine\n'
        'method: NaiveRecursion\n'
        'classification: Uncertain\n'
        'series_sum: 1.1666666666666665\n'
        'terms_used: 65\n'
        'violations: 20:out_of_range, 21:out_of_range, 22:out_of_range\n'
        '\n'
        'index  a                       d\n'
        '0      1.0\n'
        '1      0.1428571428571428      0.8571428571428572\n'
        '2      0.020408163265306062    0.12244897959183673\n'
        '3      0.0029154518950436706   0.01749271137026239\n'
        '4      0.00041649312786332885  0.0024989587671803417\n'
        '5      5.949901826613716e-05   0.0003569941095971917\n'
        '6      8.499859752252635e-06   5.0999158513884524e-05\n'
        '7      1.2142656788405597e-06  7.285594073412075e-06\n'
        '8      1.7346652549597752e-07  1.0407991533445822e-06\n'
        '9      2.4780932161037196e-08  1.4868559333494032e-07\n'
        '10     3.5401331131885793e-09  2.1240799047848617e-08\n'
        '11     5.057332492102053e-10   3.034399863978374e-09\n'
        '12     7.224755435615198e-11   4.3348569485405336e-10\n'
        '13     1.0321026519858633e-11  6.192652783629334e-11\n'
        '14     1.4743796861024406e-12  8.846646833756193e-12\n'
        '15     2.1057299556584168e-13  1.263806690536599e-12\n'
        '16     3.002918263204185e-14   1.8054381293379982e-13\n'
        '17     4.2372093557847314e-15  2.579197327625712e-14\n'
        '18     5.526417448908571e-16   3.684567610893874e-15\n'
        '19     2.6274943334589326e-17  5.263668015562677e-16\n'
        '20     -4.892031403059178e-17  7.51952573651811e-17\n'
        '21     -5.966249365418907e-17  1.0742179623597292e-17\n'
        '22     -6.119709074327439e-17  1.5345970890853204e-18\n',
        ''),
]


@pytest.mark.parametrize("argv, code, out, err", _PINNED, ids=[case[0] for case in _PINNED])
def test_output_bytes_are_pinned(capsys, argv, code, out, err):
    assert run_cli(capsys, *argv.split()) == (code, out, err)
