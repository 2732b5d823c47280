"""Tests of the benchmark's reference checker, independent of the program.

Run from the repository root:  python -m pytest -q bench/test_reference.py
"""

import json
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))

from bdbench import streams  # noqa: E402
from bdbench.reference import Model, Precision, check  # noqa: E402


def _time_ref(family, imax, digits=None, **params):
    return {"check": "time", "family": family, "imax": imax, "digits": digits, **params}


def _exact_times(ref):
    prec = Precision(ref["digits"])
    model = Model(ref, prec)
    with localcontext() as ctx:
        ctx.prec = prec.reference_digits + 5
        delta = [model.delta(i, prec.reference_digits) for i in range(ref["imax"])]
        omega = [Decimal(0)]
        for d in delta:
            omega.append(omega[-1] + d)
    return prec, delta, omega


def _render(values, digits):
    if digits is None:
        return [repr(float(v)) for v in values]
    with localcontext() as ctx:
        ctx.prec = digits
        return [str(+v) for v in values]


def _answer(ref, delta, omega, classification="Finite"):
    return json.dumps({"classification": classification, "delta": delta, "omega": omega})


def _grade(ref, out, rc=0):
    return check(ref, streams.EXIT_REPORT, "ok", rc, out, "")


TIME_CASES = [
    _time_ref("const", 30, a="1", b="1.3"),
    _time_ref("exp_death", 60, a="1.5", b="0.75"),
    _time_ref("linear", 60, a="0.6", b="1.1"),
    _time_ref("algebraic", 60),
    _time_ref("exp_death", 60, digits=50, a="1.5", b="0.75"),
    _time_ref("linear", 40, digits=30, a="0.6", b="1.1"),
]


@pytest.mark.parametrize("ref", TIME_CASES, ids=lambda r: f"{r['family']}-{r['digits']}")
def test_exact_times_pass_and_tenfold_error_is_flagged(ref):
    prec, delta, omega = _exact_times(ref)
    good = _grade(ref, _answer(ref, _render(delta, ref["digits"]), _render(omega, ref["digits"])))
    assert not (good.inaccurate or good.gross or good.failed), good.findings

    for name, index in (("omega", 3), ("delta", ref["imax"] // 2)):
        values = {"delta": list(delta), "omega": list(omega)}
        with localcontext() as ctx:
            ctx.prec = prec.reference_digits + 5
            values[name][index] *= 1 + 10 * prec.allowed(index)
        bad = _grade(ref, _answer(ref, _render(values["delta"], ref["digits"]),
                                  _render(values["omega"], ref["digits"])))
        assert bad.inaccurate and not bad.gross, (name, bad.findings)


@pytest.mark.parametrize("digits", [None, 70])
def test_extinction_probability_absolute_error(digits):
    ref = {"check": "prob", "family": "const", "a": "2.5", "b": "1.25", "imax": 50, "digits": digits}
    prec = Precision(digits)
    with localcontext() as ctx:
        ctx.prec = prec.reference_digits
        exact = [(prec.literal("1.25") / prec.literal("2.5")) ** i for i in range(51)]
        perturbed = list(exact)
        perturbed[20] += 10 * prec.allowed(20)

    def answer(a):
        return json.dumps({"classification": "Uncertain", "a": _render(a, digits)})

    good = _grade(ref, answer(exact))
    assert not (good.inaccurate or good.gross), good.findings
    bad = _grade(ref, answer(perturbed))
    assert bad.inaccurate and not bad.gross


def test_seed_defect_near_critical_machine_precision_is_reported():
    # lambda=1, mu=1.02: omega_1 = 1/(mu - lambda) = 50; the seed answers
    # 49.99999999997512 because its stopping rule ignores the tail
    ref = _time_ref("const", 1, a="1", b="1.02")
    value = "49.99999999997512"
    verdict = _grade(ref, _answer(ref, [value], ["0.0", value]))
    assert verdict.inaccurate and not verdict.gross and not verdict.failed
    assert any("omega[1]" in f for f in verdict.findings)


def test_seed_defect_lambda_n_mu_n_plus_2_is_reported():
    # lambda=n, mu=n+2: delta_0 = 1/2; the seed answers 0.4999999998158
    ref = _time_ref("plus_k", 1, k=2)
    value = "0.4999999998158"
    verdict = _grade(ref, _answer(ref, [value], ["0.0", value]))
    assert verdict.inaccurate and not verdict.gross


def test_wrong_classification_is_gross():
    ref = _time_ref("const", 2, a="1", b="2")
    verdict = _grade(ref, _answer(ref, [], [], classification="Infinite"))
    assert verdict.inaccurate and verdict.gross


def test_inconclusive_needs_exit_status_2():
    ref = _time_ref("plus_k", 1, digits=30, k=2)
    out = json.dumps({"classification": "Inconclusive", "delta": [], "omega": []})
    assert _grade(ref, out, rc=2).inconclusive
    assert _grade(ref, _answer(ref, ["0.5"], ["0", "0.5"]), rc=2).failed


def test_failures():
    invalid = {"check": "invalid", "family": "syntax"}
    assert not check(invalid, streams.EXIT_USAGE, "ok", 1, "", "error: syntax error\n").failed
    assert check(invalid, streams.EXIT_USAGE, "ok", 1, "", "Traceback\n  line\n").failed
    assert check(invalid, streams.EXIT_USAGE, "exception:RecursionError", None, "", "").failed
    ref = _time_ref("const", 1, a="1", b="2")
    assert check(ref, streams.EXIT_REPORT, "timeout", None, "", "").failed
    assert _grade(ref, "not json").failed


def test_simulate_mean_time_within_standard_errors():
    ref = {"check": "simulate", "family": "const", "a": "1", "b": "2", "start": 2, "runs": 4000, "cap": "1e4"}

    def answer(mean):
        return json.dumps({"runs": 4000, "extinct_runs": 4000, "censored_runs": 0,
                           "extinction_probability_estimate": "1.0",
                           "mean_time_estimate": repr(mean), "std_error_time": "0.05"})

    assert not _grade(ref, answer(2.1)).inaccurate  # omega_2 = 2, 2 SE away
    assert _grade(ref, answer(2.3)).inaccurate  # 6 SE away


def test_series_reference_matches_closed_forms_and_direct_oracle():
    from oracles import passage_time_direct

    with localcontext() as ctx:
        ctx.prec = 45
        for family, a, b in (("exp_death", "1.5", "0.75"), ("linear", "0.6", "1.1")):
            model = Model({"family": family, "a": a, "b": b}, Precision(30))
            assert abs(model._delta_series(0, 40) / model.delta(0, 40) - 1) < Decimal("1e-38")
        model = Model({"family": "algebraic"}, Precision(30))
        for i in (0, 3, 17):
            direct = passage_time_direct(lambda n: 2 + Decimal(n) / 2, lambda n: Decimal(n) * Decimal(n).sqrt(),
                                         i, terms=120, digits=45)
            assert abs(model.delta(i, 40) / direct - 1) < Decimal("1e-36")


def test_streams_are_seeded_and_keep_their_shares():
    import itertools

    for workload, families in streams.FAMILIES.items():
        first = [r.argv for r in itertools.islice(streams.stream(workload, 7), 200)]
        assert first == [r.argv for r in itertools.islice(streams.stream(workload, 7), 200)]
        assert first != [r.argv for r in itertools.islice(streams.stream(workload, 8), 200)]
        counts = {name: 0 for name in families}
        for req in itertools.islice(streams.stream(workload, 7), 100):
            counts[req.family] += 1
        total = sum(w for w, _ in families.values())
        for name, (weight, _) in families.items():
            assert abs(counts[name] - 100 * weight / total) <= 1
