import dataclasses

import pytest

from birthdeath import (
    CERTAIN,
    INCONCLUSIVE,
    NAIVE_RECURSION,
    STABLE_SERIES,
    UNCERTAIN,
    Converged,
    Diverged,
    InconclusiveSeriesError,
    SeriesPolicy,
    expr_model,
    extinction_probabilities,
    extinction_probabilities_naive,
    extinction_sum,
    make_context,
    omega_naive,
    omega_stable,
    pi_product,
)

import oracles


def test_pi_product_empty_product_is_one(mctx):
    m = expr_model("5", "0.1", mctx)
    assert float(pi_product(m, 1, mctx)) == 1.0


def test_pi_product_constant_rates(mctx):
    m = expr_model("1", "2", mctx)
    assert float(pi_product(m, 4, mctx)) == 8.0


def test_pi_product_factorial_growth(mctx):
    m = expr_model("1", "n", mctx)
    assert float(pi_product(m, 5, mctx)) == 24.0


def test_pi_product_rejects_k_zero(mctx):
    m = expr_model("1", "2", mctx)
    with pytest.raises(ValueError):
        pi_product(m, 0, mctx)


def test_extinction_sum_geometric(mctx):
    out = extinction_sum(expr_model("2", "1", mctx), mctx)
    assert isinstance(out, Converged)
    assert abs(float(out.total) - 2.0) < 1e-13


def test_extinction_sum_divergent_cases(mctx):
    assert isinstance(extinction_sum(expr_model("1", "2", mctx), mctx), Diverged)
    assert isinstance(extinction_sum(expr_model("1", "n", mctx), mctx), Diverged)


def test_extinction_sum_inconclusive_for_harmonic_like_terms(mctx):
    # death/birth = (2n+1)/(2n+3) gives product terms ~ 3/(2k+1)
    model = expr_model("2*n + 3", "2*n + 1", mctx)
    policy = dataclasses.replace(SeriesPolicy.default(mctx), max_terms=3000)
    with pytest.raises(InconclusiveSeriesError):
        extinction_sum(model, mctx, policy)


def test_engines_report_an_inconclusive_series(mctx):
    # the harmonic-like normalizing sum above, cut at 100 terms: both stable
    # engines answer with a classified report, and the naive ones relabel it
    model = expr_model("2*n + 3", "2*n + 1", mctx)
    policy = dataclasses.replace(SeriesPolicy.default(mctx), max_terms=100)
    probs = extinction_probabilities(model, 2, mctx, policy)
    times = omega_stable(model, 2, mctx, policy)
    for report, arrays in ((probs, (probs.a, probs.d)), (times, (times.delta, times.omega))):
        assert report.classification == INCONCLUSIVE
        assert report.method == STABLE_SERIES
        assert report.terms_used == 100
        assert arrays == ([], [])
    assert probs.series_sum is None
    for naive in (extinction_probabilities_naive(model, probs, mctx), omega_naive(model, times, mctx)):
        assert naive.classification == INCONCLUSIVE
        assert naive.method == NAIVE_RECURSION
        assert naive.terms_used == 100


def test_stable_probabilities_match_linear_solve_oracle(mctx):
    report = extinction_probabilities(expr_model("2", "1", mctx), 3, mctx)
    assert report.classification == UNCERTAIN
    assert report.method == STABLE_SERIES
    oracle = oracles.extinction_linear_solve(2.0, 1.0, absorbing_at=200, i_max=3)
    for ours, ref in zip(report.a, oracle):
        assert abs(float(ours) - ref) < 1e-12
    # frozen closed form
    assert [float(x) for x in report.a] == [1.0, 0.5, 0.25, 0.125]
    assert float(report.series_sum) == 2.0


def test_certain_case_is_exactly_all_ones(mctx):
    report = extinction_probabilities(expr_model("1", "2", mctx), 3, mctx)
    assert report.classification == CERTAIN
    assert report.series_sum is None
    assert [float(x) for x in report.a] == [1.0, 1.0, 1.0, 1.0]
    assert all(float(x) == 0.0 for x in report.d)
    report_n = extinction_probabilities(expr_model("1", "n", mctx), 5, mctx)
    assert report_n.classification == CERTAIN
    assert all(float(x) == 1.0 for x in report_n.a)


def test_naive_matches_stable_on_benign_model(mctx):
    model = expr_model("2", "1", mctx)
    stable = extinction_probabilities(model, 3, mctx)
    naive = extinction_probabilities_naive(model, stable, mctx)
    assert naive.method == NAIVE_RECURSION
    for s, n in zip(stable.a, naive.a):
        assert abs(float(s) - float(n)) <= 1e-10 * max(1.0, abs(float(s)))


def test_naive_geometric_third_rates(mctx):
    model = expr_model("3", "1", mctx)
    report = extinction_probabilities_naive(model, extinction_probabilities(model, 4, mctx), mctx)
    expected = [oracles.geometric_extinction(3.0, 1.0, i) for i in range(5)]
    for ours, ref in zip(report.a, expected):
        assert abs(float(ours) - ref) < 1e-12
    assert not report.violations


def test_naive_divergent_sum_is_vacuous_all_ones(mctx):
    model = expr_model("1", "2", mctx)
    report = extinction_probabilities_naive(model, extinction_probabilities(model, 2, mctx), mctx)
    assert report.classification == CERTAIN
    assert [float(x) for x in report.a] == [1.0, 1.0, 1.0]


def test_naive_out_of_range_values_are_recorded_not_clipped(mctx):
    model = expr_model("7", "1", mctx)
    report = extinction_probabilities_naive(model, extinction_probabilities(model, 40, mctx), mctx)
    assert report.violations, "expected drift below zero for this model"
    first = min(v.index for v in report.violations)
    assert first == 20
    assert all(v.kind == "out_of_range" for v in report.violations)
    # the offending values are preserved in the output
    assert any(float(x) < 0 for x in report.a)


def test_telescoping_is_exact(mctx):
    for maker in ("2", "3"):
        report = extinction_probabilities(expr_model(maker, "1", mctx), 12, mctx)
        for i in range(1, 13):
            assert report.a[i - 1] - report.a[i] == report.d[i - 1]


def test_stable_a_is_monotone_non_increasing(mctx):
    report = extinction_probabilities(expr_model("2", "1", mctx), 30, mctx)
    for i in range(1, 31):
        assert float(report.a[i]) <= float(report.a[i - 1])
    # convergent sum: the trend is consistent with a_i -> 0
    assert float(report.a[30]) < float(report.a[1])


def test_one_step_balance_residual_invariant(mctx):
    # |a_i (lam+mu) - lam a_{i+1} - mu a_{i-1}| <= 10 rel_tol (lam+mu)
    policy = SeriesPolicy.default(mctx)
    for lam, mu in (("2", "1"), ("3", "1"), ("1.6", "1")):
        model = expr_model(lam, mu, mctx)
        report = extinction_probabilities(model, 20, mctx, policy)
        assert report.classification == UNCERTAIN
        for i in range(1, 20):
            lam_i, mu_i = float(model.birth(i)), float(model.death(i))
            residual = (
                float(report.a[i]) * (lam_i + mu_i)
                - lam_i * float(report.a[i + 1])
                - mu_i * float(report.a[i - 1])
            )
            assert abs(residual) <= 10 * float(policy.rel_tol) * (lam_i + mu_i)


def test_method_agreement_on_constant_models(mctx):
    for lam in ("2", "3", "1.6"):
        model = expr_model(lam, "1", mctx)
        stable = extinction_probabilities(model, 10, mctx)
        naive = extinction_probabilities_naive(model, stable, mctx)
        for s, n in zip(stable.a, naive.a):
            ref = abs(float(s))
            assert abs(float(s) - float(n)) <= 1e-10 * max(ref, 1e-30)


def test_extended_precision_certain_and_uncertain():
    ctx = make_context("extended", 30)
    certain = extinction_probabilities(expr_model("1", "n", ctx), 3, ctx)
    assert certain.classification == CERTAIN
    uncertain = extinction_probabilities(expr_model("2", "1", ctx), 3, ctx)
    err = oracles.rel_err_decimal(uncertain.a[3].literal(), "0.125")
    assert err < 1e-26


def test_imax_validation(mctx):
    with pytest.raises(ValueError):
        extinction_probabilities(expr_model("2", "1", mctx), 0, mctx)
