"""Probability of ultimate extinction for a birth-and-death process.

State 0 is absorbing.  Writing pi_k for the product of death/birth rate
ratios over states 1..k-1 (pi_1 = 1, the empty product), the probability
of ever hitting 0 from state i is

    a_i = 1 - (pi_1 + ... + pi_i) / S,     S = sum of all pi_k,

when S converges; when S diverges extinction is certain and a_i = 1 for
every start state.  The increments d_i = a_{i-1} - a_i equal pi_i / S.

Two engines are provided on purpose.  The stable one evaluates the series
directly.  The naive one seeds a_1 = 1 - 1/S and runs the textbook forward
recursion a_{i+1} = (1 + mu_i/lambda_i) a_i - (mu_i/lambda_i) a_{i-1};
it is retained for comparison and labels its output accordingly, recording
out-of-range values instead of repairing them.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import accumulate, islice
from typing import Iterator

from .arithmetic import Real, RealContext
from .errors import InconclusiveSeriesError
from .rates import RateModel
from .reports import (
    CERTAIN,
    INCONCLUSIVE,
    NAIVE_RECURSION,
    STABLE_SERIES,
    UNCERTAIN,
    VIOLATION_OUT_OF_RANGE,
    ExtinctionReport,
    Violation,
)
from .series import Diverged, SeriesOutcome, SeriesPolicy, sum_positive_series

__all__ = [
    "pi_product",
    "extinction_sum",
    "extinction_probabilities",
    "extinction_probabilities_naive",
]


def pi_product(model: RateModel, k: int, ctx: RealContext) -> Real:
    """Product of death(n)/birth(n) over n = 1..k-1; 1 for k = 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return Real(ctx, next(islice(_pi_terms(model, ctx), k - 1, None)))


def _pi_terms(model: RateModel, ctx: RealContext) -> Iterator:
    """pi_1, pi_2, ... as raw values of ``ctx``."""
    birth, death = model.raw(ctx)
    mul, div = ctx.mul, ctx.div
    term = ctx.one().raw
    yield term
    n = 1
    while True:
        term = div(mul(term, death(n)), birth(n))
        yield term
        n += 1


def extinction_sum(
    model: RateModel, ctx: RealContext, policy: SeriesPolicy | None = None
) -> SeriesOutcome:
    """Verdict on the normalizing sum S; Diverged means certain extinction."""
    return sum_positive_series(_pi_terms(model, ctx), ctx, policy)


def extinction_probabilities(
    model: RateModel,
    i_max: int,
    ctx: RealContext,
    policy: SeriesPolicy | None = None,
) -> ExtinctionReport:
    """Extinction probabilities a[0..i_max] by direct series evaluation.

    An exhausted term budget gives an ``Inconclusive`` report.
    """
    if i_max < 1:
        raise ValueError(f"i_max must be >= 1, got {i_max}")
    try:
        outcome = extinction_sum(model, ctx, policy)
    except InconclusiveSeriesError as exc:
        return ExtinctionReport(
            classification=INCONCLUSIVE,
            series_sum=None,
            a=[],
            d=[],
            terms_used=exc.terms,
            method=STABLE_SERIES,
        )
    if isinstance(outcome, Diverged):
        one = ctx.one()
        return ExtinctionReport(
            classification=CERTAIN,
            series_sum=None,
            a=[one] * (i_max + 1),
            d=[ctx.zero()] * i_max,
            terms_used=outcome.terms,
            method=STABLE_SERIES,
            low_confidence=outcome.low_confidence,
        )
    total, div = outcome.total.raw, ctx.div
    d = [div(pi, total) for pi in islice(_pi_terms(model, ctx), i_max)]
    return ExtinctionReport(
        classification=UNCERTAIN,
        series_sum=outcome.total,
        a=ctx.reals(accumulate(d, ctx.sub, initial=ctx.one().raw)),
        d=ctx.reals(d),
        terms_used=outcome.terms,
        method=STABLE_SERIES,
    )


def extinction_probabilities_naive(
    model: RateModel, stable: ExtinctionReport, ctx: RealContext
) -> ExtinctionReport:
    """Extinction probabilities by the forward recursion, for comparison.

    ``stable`` is the :func:`extinction_probabilities` report for the same
    model and context; the recursion covers the same indexes.  A report
    that is not ``Uncertain`` (a divergent or inconclusive normalizing
    sum) leaves the recursion nothing to do and is passed through,
    relabelled.  Values escaping [0, 1] are recorded as violations, never
    clipped.
    """
    if stable.classification != UNCERTAIN:
        return replace(stable, method=NAIVE_RECURSION)
    i_max = len(stable.d)
    one = ctx.one()
    a = [one, one - one / stable.series_sum]
    for i in range(1, i_max):
        ratio = model.death(i) / model.birth(i)
        a.append((one + ratio) * a[i] - ratio * a[i - 1])
    violations = [
        Violation(i, VIOLATION_OUT_OF_RANGE)
        for i, value in enumerate(a)
        if value < 0 or value > 1
    ]
    d = [a[i - 1] - a[i] for i in range(1, i_max + 1)]
    return replace(stable, a=a, d=d, method=NAIVE_RECURSION, violations=violations)
