import dataclasses
import decimal
from decimal import Decimal

import pytest

from birthdeath import (
    FINITE,
    INFINITE,
    NAIVE_RECURSION,
    NOT_CERTAIN_EXTINCTION,
    Converged,
    Diverged,
    RateModel,
    SeriesPolicy,
    delta_residual,
    delta_series,
    expr_model,
    first_violation,
    make_context,
    omega_naive,
    omega_stable,
    recurrence_residual,
)

import oracles


def test_delta0_is_e_minus_one(mctx):
    out = delta_series(expr_model("1", "n", mctx), 0, mctx)
    assert isinstance(out, Converged)
    assert oracles.rel_err_decimal(out.total.literal(), oracles.OMEGA_1) < 1e-12


def test_delta1_against_direct_summation_oracle(mctx):
    out = delta_series(expr_model("1", "n", mctx), 1, mctx)
    direct = oracles.passage_time_direct(lambda n: 1, lambda n: n, 1, terms=60)
    assert oracles.rel_err_decimal(out.total.literal(), direct) < 1e-13
    # and the direct sum itself is e - 2
    assert abs(direct - Decimal(oracles.DELTA_1)) < Decimal("1e-30")


def test_raw_loops_round_in_the_context_not_the_thread():
    # the thread's 5-digit decimal context must play no part in a 70-digit run
    ctx70 = make_context("extended", 70)
    with decimal.localcontext(prec=5):
        report = omega_stable(expr_model("1", "n", ctx70), 1, ctx70)
    assert report.classification == FINITE
    e_minus_one = oracles.highprec().subtract(oracles.taylor_e(), 1)
    assert oracles.rel_err_decimal(report.omega[1].literal(), e_minus_one) < Decimal("1e-68")


def test_delta_series_extended_vs_oracle():
    ctx = make_context("extended", 30)
    model = expr_model("1", "n", ctx)
    for i in range(5):
        out = delta_series(model, i, ctx)
        direct = oracles.passage_time_direct(lambda n: 1, lambda n: n, i, terms=80)
        assert oracles.rel_err_decimal(out.total.literal(), direct) < 1e-27


def test_delta_divergent_when_rates_balance(mctx):
    out = delta_series(expr_model("1", "1", mctx), 0, mctx)
    assert isinstance(out, Diverged)


def test_delta_geometric_closed_form(mctx):
    out = delta_series(expr_model("1", "2", mctx), 7, mctx)
    assert abs(float(out.total) - 1.0) < 1e-12


def test_omega_stable_small_values(mctx):
    report = omega_stable(expr_model("1", "n", mctx), 2, mctx)
    assert report.classification == FINITE
    assert float(report.omega[0]) == 0.0
    assert oracles.rel_err_decimal(report.omega[1].literal(), oracles.OMEGA_1) < 1e-12
    assert oracles.rel_err_decimal(report.omega[2].literal(), oracles.OMEGA_2) < 1e-12


def test_omega_stable_geometric_is_exact_here(mctx):
    report = omega_stable(expr_model("1", "2", mctx), 3, mctx)
    assert [float(x) for x in report.omega] == [0.0, 1.0, 2.0, 3.0]


def test_omega_refuses_uncertain_extinction(mctx):
    report = omega_stable(expr_model("2", "1", mctx), 1, mctx)
    assert report.classification == NOT_CERTAIN_EXTINCTION
    assert report.delta == []
    assert float(report.omega[0]) == 0.0


def test_omega_infinite_classification(mctx):
    report = omega_stable(expr_model("1", "1", mctx), 3, mctx)
    assert report.classification == INFINITE
    assert float(report.omega[0]) == 0.0
    assert all(x.is_infinite() for x in report.omega[1:])
    assert all(x.is_infinite() for x in report.delta)
    assert report.terms_used > 0
    assert not report.low_confidence


def test_omega_accumulates_prefix_sums_exactly(mctx):
    report = omega_stable(expr_model("1", "n", mctx), 8, mctx)
    acc = mctx.zero()
    for i, d in enumerate(report.delta):
        acc = acc + d
        assert report.omega[i + 1] == acc


def test_omega_monotone_when_finite(mctx):
    report = omega_stable(expr_model("1", "n", mctx), 50, mctx)
    for i in range(1, 51):
        assert float(report.omega[i]) > float(report.omega[i - 1])


@pytest.mark.parametrize("digits", [None, 40])
@pytest.mark.parametrize("lam, mu", [("1", "n"), ("1", "n+1"), ("2+0.5*n", "n^1.5")])
def test_stepped_deltas_match_independent_series(digits, lam, mu):
    ctx = make_context("extended", digits) if digits else make_context("machine")
    model = expr_model(lam, mu, ctx)
    i_max = 200
    report = omega_stable(model, i_max, ctx)
    tol = Decimal(SeriesPolicy.default(ctx).rel_tol.literal())
    for i in (0, 1, i_max // 4, i_max // 2, i_max - 1):
        direct = delta_series(model, i, ctx)
        assert oracles.rel_err_decimal(report.delta[i].literal(), direct.total.literal()) < tol


@pytest.mark.parametrize("digits", [None, 40])
def test_constant_rates_give_constant_delta(digits):
    ctx = make_context("extended", digits) if digits else make_context("machine")
    report = omega_stable(expr_model("2", "5", ctx), 50, ctx)
    tol = Decimal(SeriesPolicy.default(ctx).rel_tol.literal())
    exact = oracles.highprec().divide(Decimal(1), Decimal(3))
    for d in report.delta:
        assert oracles.rel_err_decimal(d.literal(), exact) < tol


def test_omega_stable_sums_at_most_two_series(mctx, monkeypatch):
    import birthdeath.extinction
    import birthdeath.hitting_time

    calls = []
    for module in (birthdeath.extinction, birthdeath.hitting_time):
        original = module.sum_positive_series
        monkeypatch.setattr(
            module, "sum_positive_series",
            lambda *args, original=original: calls.append(1) or original(*args),
        )
    report = omega_stable(expr_model("1", "n", mctx), 500, mctx)
    assert report.classification == FINITE
    assert len(calls) == 2


def test_low_confidence_infinite_is_reported(mctx):
    # rate ratios alternate 2 and 1/2: the terms never shrink, yet never
    # grow for a whole window, so divergence is only called at the budget
    model = expr_model("1", "1.25 - 0.75*(-1)^n", mctx)
    policy = dataclasses.replace(SeriesPolicy.default(mctx), max_terms=1000)
    report = omega_stable(model, 3, mctx, policy)
    assert report.classification == INFINITE
    assert report.low_confidence
    assert report.terms_used == 1000


def test_low_confidence_extinction_carries_into_the_time_report(mctx):
    # certain extinction is called only at the budget (the pi ratios
    # alternate 2 and 1/2); the top delta converges on its own
    model = expr_model("exp(n)", "exp(n)*(1.25 - 0.75*(-1)^n)", mctx)
    policy = dataclasses.replace(SeriesPolicy.default(mctx), max_terms=200)
    report = omega_stable(model, 3, mctx, policy)
    assert report.classification == FINITE
    assert report.low_confidence
    assert omega_naive(model, report, mctx).low_confidence


def test_naive_benign_case_no_violations(mctx):
    model = expr_model("1", "2", mctx)
    report = omega_naive(model, omega_stable(model, 5, mctx), mctx)
    assert report.method == NAIVE_RECURSION
    assert [float(x) for x in report.omega] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert report.violations == []


def test_naive_mirrors_refusals(mctx):
    model = expr_model("2", "1", mctx)
    report = omega_naive(model, omega_stable(model, 2, mctx), mctx)
    assert report.classification == NOT_CERTAIN_EXTINCTION
    assert report.method == NAIVE_RECURSION
    balanced = expr_model("1", "1", mctx)
    inf_report = omega_naive(balanced, omega_stable(balanced, 2, mctx), mctx)
    assert inf_report.classification == INFINITE


def test_naive_breakdown_at_machine_precision(mctx):
    model = expr_model("1", "n", mctx)
    report = omega_naive(model, omega_stable(model, 30, mctx), mctx)
    first = first_violation(report.violations)
    assert first is not None
    assert first.index <= 25


def test_naive_agrees_with_stable_before_breakdown(mctx):
    model = expr_model("1", "n", mctx)
    stable = omega_stable(model, 10, mctx)
    naive = omega_naive(model, stable, mctx)
    for i in range(1, 11):
        s, n = float(stable.omega[i]), float(naive.omega[i])
        assert abs(s - n) <= 1e-8 * s


def test_recurrence_residual_exact_cases(mctx):
    m12 = expr_model("1", "2", mctx)
    omega = [mctx.real(x) for x in (0, 1, 2, 3)]
    assert float(recurrence_residual(m12, omega, 1, mctx)) == 0.0
    assert float(recurrence_residual(m12, omega, 2, mctx)) == 0.0
    m11 = expr_model("1", "1", mctx)
    wrong = [mctx.real(x) for x in (0, 1, 3, 1)]
    assert float(recurrence_residual(m11, wrong, 1, mctx)) == -1.0


def test_recurrence_residual_bounds_checked(mctx):
    m = expr_model("1", "2", mctx)
    omega = [mctx.zero(), mctx.one()]
    with pytest.raises(ValueError):
        recurrence_residual(m, omega, 0, mctx)
    with pytest.raises(ValueError):
        recurrence_residual(m, omega, 1, mctx)


def test_recurrence_residual_invariant_machine(mctx):
    policy = SeriesPolicy.default(mctx)
    model = expr_model("1", "n", mctx)
    report = omega_stable(model, 30, mctx, policy)
    tol = float(policy.rel_tol)
    for i in range(1, 30):
        res = float(recurrence_residual(model, report.omega, i, mctx))
        bound = 100 * tol * max(1.0, float(report.omega[i + 1]))
        assert abs(res) <= bound


def test_recurrence_residual_small_at_30_digits():
    ctx = make_context("extended", 30)
    model = expr_model("1", "n", ctx)
    report = omega_stable(model, 8, ctx)
    res = recurrence_residual(model, report.omega, 5, ctx)
    assert abs(Decimal(res.literal())) < Decimal("1e-25")


def test_delta_residual_exact_cases(mctx):
    m12 = expr_model("1", "2", mctx)
    ones = [mctx.one()] * 8
    assert float(delta_residual(m12, ones, 5, mctx)) == 0.0
    m11 = expr_model("1", "1", mctx)
    assert float(delta_residual(m11, [mctx.one(), mctx.one()], 1, mctx)) == 1.0


def test_delta_residual_invariant_on_stable_deltas(mctx):
    policy = SeriesPolicy.default(mctx)
    model = expr_model("1", "n", mctx)
    report = omega_stable(model, 20, mctx, policy)
    tol = float(policy.rel_tol)
    for i in range(1, 20):
        res = float(delta_residual(model, report.delta, i, mctx))
        scale = float(report.delta[i - 1]) * float(model.death(i)) / float(model.birth(i))
        assert abs(res) <= 100 * tol * max(1.0, scale)


def test_delta_independent_of_lower_rates(mctx):
    base = expr_model("1", "n", mctx)
    i = 5

    def perturbed_birth(n):
        return mctx.real("99.5") if n <= i else mctx.one()

    def perturbed_death(n):
        return mctx.real("0.125") if n <= i else mctx.real(n)

    perturbed = RateModel(perturbed_birth, perturbed_death, label="perturbed low states")
    a = delta_series(base, i, mctx)
    b = delta_series(perturbed, i, mctx)
    assert a.total.literal() == b.total.literal()
    assert a.terms == b.terms


def test_naive_at_higher_precision_breaks_later():
    ctx = make_context("extended", 40)
    model = expr_model("1", "n", ctx)
    report = omega_naive(model, omega_stable(model, 40, ctx), ctx)
    first = first_violation(report.violations)
    assert first is not None
    assert 25 <= first.index <= 40


def test_imax_validation(mctx):
    with pytest.raises(ValueError):
        omega_stable(expr_model("1", "2", mctx), 0, mctx)
    with pytest.raises(ValueError):
        delta_series(expr_model("1", "2", mctx), -1, mctx)
