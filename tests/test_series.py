import dataclasses
import random

import pytest

from birthdeath import InconclusiveSeriesError, make_context
from birthdeath.series import (
    DIVERGENCE_WINDOW,
    Converged,
    Diverged,
    SeriesPolicy,
    sum_positive_series,
)


def _terms_from_ratios(ctx, first, ratio_fn):
    def gen():
        t = ctx.real(first)
        k = 0
        while True:
            yield t
            t = t * ctx.real(ratio_fn(k))
            k += 1
    return gen()


def test_default_policy_machine(mctx):
    p = SeriesPolicy.default(mctx)
    assert float(p.rel_tol) == 1e-14
    assert p.max_terms == 10 ** 6


def test_default_policy_extended_scales_with_digits():
    ctx = make_context("extended", 30)
    assert SeriesPolicy.default(ctx).rel_tol.literal() == "1E-28"
    ctx70 = make_context("extended", 70)
    assert SeriesPolicy.default(ctx70).rel_tol.literal() == "1E-68"


def test_policy_validation(mctx):
    ok = SeriesPolicy.default(mctx)
    with pytest.raises(ValueError):
        dataclasses.replace(ok, rel_tol=mctx.real(2))
    with pytest.raises(ValueError):
        dataclasses.replace(ok, max_terms=10)  # < window
    with pytest.raises(ValueError):
        dataclasses.replace(ok, max_terms=64)  # a window of ratios needs 65 terms


def test_geometric_convergence_terminates_at_window(mctx):
    p = SeriesPolicy.default(mctx)
    out = sum_positive_series(_terms_from_ratios(mctx, "1", lambda k: "0.5"), mctx, p)
    assert isinstance(out, Converged)
    # ratio streak needs window+1 terms; the tail test passed long before
    assert out.terms == DIVERGENCE_WINDOW + 1
    assert float(out.total) == 2.0


def test_geometric_divergence_terminates_at_window(mctx):
    p = SeriesPolicy.default(mctx)
    out = sum_positive_series(_terms_from_ratios(mctx, "1", lambda k: "2"), mctx, p)
    assert isinstance(out, Diverged)
    assert not out.low_confidence
    assert out.terms == DIVERGENCE_WINDOW + 1


def test_factorial_divergence(mctx):
    p = SeriesPolicy.default(mctx)
    out = sum_positive_series(_terms_from_ratios(mctx, "1", lambda k: str(k + 1)), mctx, p)
    assert isinstance(out, Diverged)


def test_harmonic_like_is_inconclusive(mctx):
    # terms 1/(k+1): shrink forever, sum grows forever
    def gen():
        k = 1
        while True:
            yield mctx.one() / k
            k += 1
    p = dataclasses.replace(SeriesPolicy.default(mctx), max_terms=3000)
    with pytest.raises(InconclusiveSeriesError) as exc_info:
        sum_positive_series(gen(), mctx, p)
    assert exc_info.value.terms == 3000


def test_straddling_ratios_reported_low_confidence(mctx):
    # ratios alternate 1.45 / 0.75: pair product > 1, tail test keeps failing
    p = dataclasses.replace(SeriesPolicy.default(mctx), max_terms=1000)
    out = sum_positive_series(
        _terms_from_ratios(mctx, "1", lambda k: "1.45" if k % 2 == 0 else "0.75"),
        mctx, p,
    )
    assert isinstance(out, Diverged)
    assert out.low_confidence


def test_zero_term_short_circuits(mctx):
    # rates are positive, so a zero term underflowed: the tail is unknown
    def gen():
        yield mctx.one()
        yield mctx.zero()
        raise AssertionError("must not be pulled past a zero term")
    with pytest.raises(InconclusiveSeriesError, match="underflowed") as info:
        sum_positive_series(gen(), mctx, SeriesPolicy.default(mctx))
    assert info.value.terms == 2


def test_overflowing_terms_diverge(mctx):
    p = SeriesPolicy.default(mctx)
    out = sum_positive_series(_terms_from_ratios(mctx, "1", lambda k: "1e30"), mctx, p)
    assert isinstance(out, Diverged)
    assert out.terms < DIVERGENCE_WINDOW


def test_exhausted_finite_iterator_is_inconclusive(mctx):
    def gen():
        yield mctx.one()
        yield mctx.one()
    with pytest.raises(InconclusiveSeriesError):
        sum_positive_series(gen(), mctx, SeriesPolicy.default(mctx))


def test_all_growing_window_diverges_at_budget(mctx):
    # ratios steady at 1.01 with the smallest budget: its last term completes
    # a window of growth, which is decisive
    p = dataclasses.replace(SeriesPolicy.default(mctx), max_terms=DIVERGENCE_WINDOW + 1)
    out = sum_positive_series(_terms_from_ratios(mctx, "1", lambda k: "1.01"), mctx, p)
    assert isinstance(out, Diverged)
    assert not out.low_confidence
    assert out.terms == DIVERGENCE_WINDOW + 1


def test_geometric_convergence_at_the_smallest_budget(mctx):
    p = dataclasses.replace(SeriesPolicy.default(mctx), max_terms=DIVERGENCE_WINDOW + 1)
    out = sum_positive_series(_terms_from_ratios(mctx, "1", lambda k: "0.5"), mctx, p)
    assert isinstance(out, Converged)
    assert out.terms == DIVERGENCE_WINDOW + 1


def _judge(terms, policy):
    """The verdict rule restated over every ratio, reading the last window
    explicitly: (kind, terms, total or low_confidence)."""
    window = DIVERGENCE_WINDOW
    below = []  # per ratio: did the term fall?
    total = terms[0].ctx.zero()
    for count, term in enumerate(terms[:policy.max_terms], 1):
        if count > 1:
            below.append(term < terms[count - 2])
        total = total + term
        last = below[-window:]
        if len(last) == window and not any(last):
            return "diverged", count, False
        if len(last) == window and all(last) and term < policy.rel_tol * total:
            return "converged", count, total
    last = below[-window:]
    if not any(last):
        return "diverged", policy.max_terms, False
    if not all(last) and not (terms[policy.max_terms - 1] < policy.rel_tol * total):
        return "diverged", policy.max_terms, True
    return "inconclusive", policy.max_terms, None


def test_streak_counters_agree_with_an_explicit_window(mctx):
    rng = random.Random(20261018)
    families = {
        "decaying": lambda k, n: rng.uniform(0.3, 0.99),
        "slow": lambda k, n: rng.uniform(0.995, 0.99999),
        "growing": lambda k, n: rng.uniform(1.0, 1.5),
        "straddling": lambda k, n: rng.uniform(0.8, 1.2),
        "mostly_falling": lambda k, n: 1.05 if rng.random() < 0.02 else rng.uniform(0.9, 0.99),
        "growth_after_decay": lambda k, n: 0.9 if k < n else 1.01,
    }
    seen = set()
    for case in range(1200):
        family = list(families)[case % len(families)]
        budget = (65, 66, 100, 1000)[case // len(families) % 4]
        tol = rng.choice(("1e-14", "1e-6", "1e-2"))
        policy = SeriesPolicy(mctx.real(tol), budget)
        turn = rng.randrange(1, budget)
        ratios = [
            1.0 if rng.random() < 0.05 else families[family](k, turn)
            for k in range(budget - 1)
        ]
        terms = [mctx.one()]
        for r in ratios:
            terms.append(terms[-1] * mctx.real(repr(r)))
        want = _judge(terms, policy)
        try:
            out = sum_positive_series(iter(terms), mctx, policy)
        except InconclusiveSeriesError as exc:
            got = ("inconclusive", exc.terms, None)
        else:
            if isinstance(out, Converged):
                got = ("converged", out.terms, out.total)
            else:
                got = ("diverged", out.terms, out.low_confidence)
        assert got == want, (family, budget, tol, ratios)
        seen.add((got[0], got[2] is True))
    assert seen == {
        ("converged", False), ("diverged", False), ("diverged", True),
        ("inconclusive", False),
    }
