"""Acceptance suite.

One test per acceptance criterion, each asserting the stated numerical
tolerance and runtime budget.  conftest prints a PASS/FAIL line per
criterion when this module runs.
"""

import random
import time
from decimal import Decimal

from birthdeath import (
    CERTAIN,
    FINITE,
    INFINITE,
    NOT_CERTAIN_EXTINCTION,
    UNCERTAIN,
    RateModel,
    SeriesPolicy,
    delta_residual,
    delta_series,
    expr_model,
    extinction_probabilities,
    extinction_probabilities_naive,
    first_violation,
    make_context,
    omega_naive,
    omega_stable,
    recurrence_residual,
    simulate,
)

import oracles

MACHINE = make_context("machine")


class timer:
    def __init__(self, budget_seconds):
        self.budget = budget_seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.2f}s exceeded budget {self.budget}s"
            )


def test_criterion_1_omega1_oracle():
    with timer(1.0):
        machine = omega_stable(expr_model("1", "n", MACHINE), 1, MACHINE)
        assert oracles.rel_err_decimal(machine.omega[1].literal(), oracles.OMEGA_1) < 1e-12
        ctx30 = make_context("extended", 30)
        extended = omega_stable(expr_model("1", "n", ctx30), 1, ctx30)
        assert oracles.rel_err_decimal(extended.omega[1].literal(), oracles.OMEGA_1) < 1e-25


def test_criterion_2_breakdown_at_machine_precision():
    with timer(1.0):
        model = expr_model("1", "n", MACHINE)
        report = omega_naive(model, omega_stable(model, 30, MACHINE), MACHINE)
        first = first_violation(report.violations)
        assert first is not None
        assert first.index <= 25


def test_criterion_3_breakdown_at_70_digits():
    with timer(10.0):
        ctx = make_context("extended", 70)
        model = expr_model("1", "n", ctx)
        report = omega_naive(model, omega_stable(model, 65, ctx), ctx)
        first = first_violation(report.violations)
        assert first is not None
        assert 45 <= first.index <= 60


def test_criterion_4_stable_scales_to_500():
    with timer(30.0):
        model = expr_model("1", "n", MACHINE)
        policy = SeriesPolicy.default(MACHINE)
        report = omega_stable(model, 500, MACHINE, policy)
        assert report.classification == FINITE
        for i in range(1, 500):
            res = float(recurrence_residual(model, report.omega, i, MACHINE))
            assert abs(res) <= 1e-8 * max(1.0, float(report.omega[i + 1]))
        ctx40 = make_context("extended", 40)
        rerun = omega_stable(expr_model("1", "n", ctx40), 500, ctx40)
        err = oracles.rel_err_decimal(
            report.omega[500].literal(), Decimal(rerun.omega[500].literal())
        )
        assert err < 1e-10


def test_criterion_5_constant_rate_closed_forms():
    with timer(1.0):
        # subcritical: omega_i = i, extinction certain
        sub_time = omega_stable(expr_model("1", "2", MACHINE), 100, MACHINE)
        for i in range(1, 101):
            ref = oracles.geometric_omega(1.0, 2.0, i)
            assert abs(float(sub_time.omega[i]) - ref) <= 1e-10 * ref
        sub_prob = extinction_probabilities(expr_model("1", "2", MACHINE), 100, MACHINE)
        assert sub_prob.classification == CERTAIN
        assert all(float(x) == 1.0 for x in sub_prob.a)
        # supercritical: a_i = (1/2)^i, expected time refused
        sup_prob = extinction_probabilities(expr_model("2", "1", MACHINE), 50, MACHINE)
        assert sup_prob.classification == UNCERTAIN
        for i in range(51):
            ref = oracles.geometric_extinction(2.0, 1.0, i)
            assert abs(float(sup_prob.a[i]) - ref) <= 1e-10 * ref
        sup_time = omega_stable(expr_model("2", "1", MACHINE), 1, MACHINE)
        assert sup_time.classification == NOT_CERTAIN_EXTINCTION


def test_criterion_6_balanced_rates_divergence_semantics():
    with timer(1.0):
        prob = extinction_probabilities(expr_model("1", "1", MACHINE), 3, MACHINE)
        assert prob.classification == CERTAIN
        hit = omega_stable(expr_model("1", "1", MACHINE), 3, MACHINE)
        assert hit.classification == INFINITE


def test_criterion_7_monte_carlo_cross_validation():
    with timer(60.0):
        model = expr_model("1", "n", MACHINE)
        stats = simulate(model, 3, 100_000, 1000.0, 20260811)
        assert stats.censored_runs == 0
        assert (
            abs(stats.mean_time_estimate - oracles.OMEGA_3_FLOAT)
            <= 3 * stats.std_error_time
        )
        sup = expr_model("2", "1", MACHINE)
        stats2 = simulate(sup, 1, 100_000, 50.0, 20260812)
        assert (
            abs(stats2.extinction_probability_estimate - 0.5)
            <= 3 * stats2.std_error_prob
        )


# -- criterion 8: property suites over a randomized model family -------------


def _affine(rng, const_range, slope):
    c0 = rng.uniform(*const_range)
    if slope == 0.0:
        return f"{c0:.3f}"
    return f"{c0:.3f} + {slope:.3f}*n"


def _family(seed=20240811):
    """50 expression-generated models with decisive tail behavior.

    Returns (uncertain_models, certain_models): 25 with a convergent
    normalizing sum (ratio limit in [0.15, 0.6]) and 25 with certain
    extinction and finite expected times (ratio limit in [1.3, 5]).
    """
    rng = random.Random(seed)
    uncertain, certain = [], []
    for index in range(25):
        b1 = rng.uniform(0.5, 2.0)
        c = rng.uniform(0.15, 0.6)
        lam = _affine(rng, (0.2, 3.0), b1)
        if index % 2 == 0:
            mu = _affine(rng, (0.2, 3.0), c * b1)
        else:
            e0, e1 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            mu = (
                f"({rng.uniform(0.2, 3.0):.3f} + {c * b1 * e1:.3f}*n)"
                f"/({e0:.3f} + {e1:.3f}*n)"
            )
        uncertain.append((lam, mu))
    for index in range(25):
        if index == 0:
            certain.append(("1", "n"))  # constant birth, linear death
            continue
        b1 = rng.uniform(0.5, 2.0)
        c = rng.uniform(1.3, 5.0)
        if index % 3 == 0:
            lam = _affine(rng, (0.3, 2.0), 0.0)  # constant birth
            mu = _affine(rng, (0.2, 3.0), rng.uniform(0.5, 2.0))
        elif index % 3 == 1:
            lam = _affine(rng, (0.2, 3.0), b1)
            mu = _affine(rng, (0.2, 3.0), c * b1)
        else:
            e0, e1 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            lam = (
                f"({rng.uniform(0.2, 3.0):.3f} + {b1 * e1:.3f}*n)"
                f"/({e0:.3f} + {e1:.3f}*n)"
            )
            mu = _affine(rng, (0.2, 3.0), c * b1)
        certain.append((lam, mu))
    return uncertain, certain


def test_criterion_8_residual_property_suites():
    with timer(120.0):
        policy = SeriesPolicy.default(MACHINE)
        tol = float(policy.rel_tol)
        uncertain, certain = _family()
        i_max = 12

        checked_prob = 0
        for lam_src, mu_src in uncertain:
            model = expr_model(lam_src, mu_src, MACHINE)
            report = extinction_probabilities(model, i_max, MACHINE, policy)
            assert report.classification == UNCERTAIN, (lam_src, mu_src)
            for i in range(1, i_max):
                lam_i, mu_i = float(model.birth(i)), float(model.death(i))
                residual = (
                    float(report.a[i]) * (lam_i + mu_i)
                    - lam_i * float(report.a[i + 1])
                    - mu_i * float(report.a[i - 1])
                )
                assert abs(residual) <= 10 * tol * (lam_i + mu_i), (lam_src, mu_src, i)
            checked_prob += 1
        assert checked_prob == 25

        checked_time = 0
        for lam_src, mu_src in certain:
            model = expr_model(lam_src, mu_src, MACHINE)
            report = omega_stable(model, i_max, MACHINE, policy)
            assert report.classification == FINITE, (lam_src, mu_src)
            for i in range(1, i_max):
                res = float(recurrence_residual(model, report.omega, i, MACHINE))
                bound = 100 * tol * max(1.0, float(report.omega[i + 1]))
                assert abs(res) <= bound, (lam_src, mu_src, i)
            for i in range(1, i_max):
                res = float(delta_residual(model, report.delta, i, MACHINE))
                scale = (
                    float(report.delta[i - 1])
                    * float(model.death(i))
                    / float(model.birth(i))
                )
                assert abs(res) <= 100 * tol * max(1.0, scale), (lam_src, mu_src, i)
            checked_time += 1
        assert checked_time == 25

        # rate-independence: perturbing rates at states <= i leaves delta_i
        # bit-identical, on 20 perturbed models
        rng = random.Random(77)
        for trial in range(20):
            lam_src, mu_src = certain[trial % len(certain)]
            base = expr_model(lam_src, mu_src, MACHINE)
            i = rng.randrange(1, 7)
            factor_b = MACHINE.real(f"{rng.uniform(0.05, 20):.6f}")
            factor_d = MACHINE.real(f"{rng.uniform(0.05, 20):.6f}")

            def perturbed_birth(n, base=base, i=i, f=factor_b):
                return base.birth(n) * f if n <= i else base.birth(n)

            def perturbed_death(n, base=base, i=i, f=factor_d):
                return base.death(n) * f if n <= i else base.death(n)

            perturbed = RateModel(perturbed_birth, perturbed_death)
            a = delta_series(base, i, MACHINE, policy)
            b = delta_series(perturbed, i, MACHINE, policy)
            assert a.total.literal() == b.total.literal()
            assert a.terms == b.terms


def test_criterion_9_determinism():
    model_a = expr_model("1", "n", MACHINE)
    model_b = expr_model("1", "n", MACHINE)
    ext_a = extinction_probabilities(expr_model("2", "1", MACHINE), 20, MACHINE)
    ext_b = extinction_probabilities(expr_model("2", "1", MACHINE), 20, MACHINE)
    assert [x.literal() for x in ext_a.a] == [x.literal() for x in ext_b.a]
    assert [x.literal() for x in ext_a.d] == [x.literal() for x in ext_b.d]

    m7a = expr_model("7", "1", MACHINE)
    m7b = expr_model("7", "1", MACHINE)
    naive_a = extinction_probabilities_naive(m7a, extinction_probabilities(m7a, 30, MACHINE), MACHINE)
    naive_b = extinction_probabilities_naive(m7b, extinction_probabilities(m7b, 30, MACHINE), MACHINE)
    assert [x.literal() for x in naive_a.a] == [x.literal() for x in naive_b.a]
    assert naive_a.violations == naive_b.violations

    time_a = omega_stable(model_a, 40, MACHINE)
    time_b = omega_stable(model_b, 40, MACHINE)
    assert [x.literal() for x in time_a.omega] == [x.literal() for x in time_b.omega]
    assert time_a.terms_used == time_b.terms_used

    ctx70a = make_context("extended", 70)
    ctx70b = make_context("extended", 70)
    m70a = expr_model("1", "n", ctx70a)
    m70b = expr_model("1", "n", ctx70b)
    n70a = omega_naive(m70a, omega_stable(m70a, 60, ctx70a), ctx70a)
    n70b = omega_naive(m70b, omega_stable(m70b, 60, ctx70b), ctx70b)
    assert [x.literal() for x in n70a.omega] == [x.literal() for x in n70b.omega]
    assert n70a.violations == n70b.violations

    sim_model = expr_model("1", "2", MACHINE)
    sim_a = simulate(sim_model, 2, 2000, 100.0, 424242)
    sim_b = simulate(sim_model, 2, 2000, 100.0, 424242)
    assert sim_a == sim_b
