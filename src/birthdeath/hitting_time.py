"""Expected time to absorption at state 0, when extinction is certain.

delta_i denotes the expected time to first reach state i starting from
state i+1.  It admits the series

    delta_i = sum over n > i of (1/lambda_n) * prod_{j=i+1..n} lambda_j/mu_j

whose terms follow the recurrence t_{i+1} = 1/mu_{i+1} and
t_{n+1} = t_n * lambda_n / mu_{n+1} (linear cost, no re-multiplied
products).  The expected time to extinction from state i is the prefix
sum omega_i = delta_0 + ... + delta_{i-1}, with omega_0 = 0.

:func:`omega_stable` sums that series once, for the top index i_max-1,
and gets every lower delta from the one-transition balance at state i,

    delta_{i-1} = (1 + lambda_i delta_i) / mu_i,

run downward.  The step only adds and divides positive numbers, so it
cancels nothing, and a relative error in delta_i reaches delta_{i-1}
scaled by lambda_i delta_i / (1 + lambda_i delta_i) < 1: errors shrink
on the way down.  This is the direction in which the recurrence's
wanted solution is the minimal one (Gautschi, "Computational aspects of
three-term recurrence relations", SIAM Review 9, 1967), the stable
counterpart of the forward recursion below.  :func:`delta_series` stays
available for any single index, as an independent check.

The alternative textbook route runs the forward three-term recursion

    omega_{i+1} = (1 + mu_i/lambda_i) omega_i - (mu_i/lambda_i) omega_{i-1}
                  - 1/lambda_i

starting from omega_1 = delta_0.  Its homogeneous solutions grow like the
products of mu/lambda ratios, so rounding errors are amplified until the
output turns nonsensical; raising the working precision only postpones
the index where that happens.  :func:`omega_naive` implements it anyway,
compares against the stable engine, and records violations instead of
repairing them, so the breakdown stays observable.

Note delta_i never depends on rates at states <= i (the series above only
queries higher states), which is what pins the homogeneous component to
zero; :func:`delta_residual` makes that checkable numerically.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import accumulate
from typing import Iterator

from .arithmetic import Real, RealContext
from .errors import InconclusiveSeriesError
from .rates import RateModel
from .reports import (
    FINITE,
    INCONCLUSIVE,
    INFINITE,
    NAIVE_RECURSION,
    NOT_CERTAIN_EXTINCTION,
    STABLE_SERIES,
    VIOLATION_DEVIATION,
    VIOLATION_NEGATIVE,
    VIOLATION_NON_MONOTONE,
    VIOLATION_OVERFLOW,
    HittingTimeReport,
    Violation,
)
from .series import Converged, Diverged, SeriesOutcome, SeriesPolicy, sum_positive_series
from .extinction import extinction_sum

__all__ = [
    "delta_series",
    "omega_stable",
    "omega_naive",
    "recurrence_residual",
    "delta_residual",
]


def _delta_terms(model: RateModel, i: int, ctx: RealContext) -> Iterator:
    """The terms of delta_i as raw values of ``ctx``."""
    birth, death = model.raw(ctx)
    mul, div = ctx.mul, ctx.div
    term = div(ctx.one().raw, death(i + 1))
    yield term
    n = i + 1
    while True:
        term = div(mul(term, birth(n)), death(n + 1))
        yield term
        n += 1


def delta_series(
    model: RateModel, i: int, ctx: RealContext, policy: SeriesPolicy | None = None
) -> SeriesOutcome:
    """Expected first-passage time from state i+1 down to state i.

    Only queries rates at states strictly above i.  ``Converged`` carries
    the time as its total; ``Diverged`` means the expected time is infinite.
    """
    if i < 0:
        raise ValueError(f"i must be >= 0, got {i}")
    return sum_positive_series(_delta_terms(model, i, ctx), ctx, policy)


def omega_stable(
    model: RateModel,
    i_max: int,
    ctx: RealContext,
    policy: SeriesPolicy | None = None,
) -> HittingTimeReport:
    """Expected times to extinction omega[0..i_max] from one seed series.

    Refuses (classification ``NotCertainExtinction``) when the extinction
    probability is below one, since the unconditional expected time is not
    the quantity anyone wants there.  delta at i_max-1 is summed as a
    series and the lower deltas follow by the downward step.  If that
    series diverges, every delta, being finite exactly when its neighbours
    are, is infinite, and so is every omega past omega[0].  If either
    series exhausts the term budget, the report is ``Inconclusive``.  The
    report is low-confidence when either verdict it rests on is: certain
    extinction, its premise, or an infinite top delta.
    """
    if i_max < 1:
        raise ValueError(f"i_max must be >= 1, got {i_max}")
    try:
        premise = extinction_sum(model, ctx, policy)
        if isinstance(premise, Converged):
            return HittingTimeReport(
                classification=NOT_CERTAIN_EXTINCTION,
                delta=[],
                omega=[ctx.zero()],
                method=STABLE_SERIES,
                terms_used=0,
            )
        top = delta_series(model, i_max - 1, ctx, policy)
    except InconclusiveSeriesError as exc:
        return HittingTimeReport(
            classification=INCONCLUSIVE,
            delta=[],
            omega=[],
            method=STABLE_SERIES,
            terms_used=exc.terms,
        )
    if isinstance(top, Diverged):
        inf = ctx.infinity()
        return HittingTimeReport(
            classification=INFINITE,
            delta=[inf] * i_max,
            omega=[ctx.zero()] + [inf] * i_max,
            method=STABLE_SERIES,
            terms_used=top.terms,
            low_confidence=premise.low_confidence or top.low_confidence,
        )
    birth, death = model.raw(ctx)
    add, mul, div = ctx.add, ctx.mul, ctx.div
    one = ctx.one().raw
    delta = [top.total.raw]
    for i in range(i_max - 1, 0, -1):
        delta.append(div(add(one, mul(birth(i), delta[-1])), death(i)))
    delta.reverse()
    return HittingTimeReport(
        classification=FINITE,
        delta=ctx.reals(delta),
        omega=ctx.reals(accumulate(delta, add, initial=ctx.zero().raw)),
        method=STABLE_SERIES,
        terms_used=top.terms,
        low_confidence=premise.low_confidence,
    )


def omega_naive(
    model: RateModel, stable: HittingTimeReport, ctx: RealContext
) -> HittingTimeReport:
    """Expected times to extinction via the forward recursion, for comparison.

    ``stable`` is the :func:`omega_stable` report for the same model and
    context; the recursion covers the same indexes.  A report that is not
    ``Finite`` is passed through, relabelled.  Otherwise seeds omega_1
    with the stable delta_0 and recurses forward, recording per-index
    violations: negative values, non-monotone steps, and relative
    deviation from the stable value above 1.
    """
    if stable.classification != FINITE:
        return replace(stable, method=NAIVE_RECURSION)
    i_max = len(stable.delta)
    one = ctx.one()
    omega = [ctx.zero(), stable.delta[0]]
    violations: list[Violation] = []
    for i in range(1, i_max):
        mu, lam = model.death(i), model.birth(i)
        ratio = mu / lam
        try:
            nxt = (one + ratio) * omega[i] - ratio * omega[i - 1] - one / lam
        except OverflowError:
            violations.append(Violation(i + 1, VIOLATION_OVERFLOW))
            break
        omega.append(nxt)
    for i in range(1, len(omega)):
        if omega[i] < 0:
            violations.append(Violation(i, VIOLATION_NEGATIVE))
        if omega[i] <= omega[i - 1]:
            violations.append(Violation(i, VIOLATION_NON_MONOTONE))
        deviation = abs(omega[i] - stable.omega[i]) / stable.omega[i]
        if deviation > 1:
            violations.append(Violation(i, VIOLATION_DEVIATION))
    violations.sort(key=lambda v: v.index)
    delta = [omega[i + 1] - omega[i] for i in range(len(omega) - 1)]
    return replace(
        stable, delta=delta, omega=omega, method=NAIVE_RECURSION, violations=violations
    )


def recurrence_residual(
    model: RateModel, omega: list[Real], i: int, ctx: RealContext
) -> Real:
    """How far omega[i] is from the one-transition balance at state i.

    Zero (up to rounding) for a correct sequence: conditioning on the next
    transition, omega_i must equal the rate-weighted mix of its neighbors
    plus the expected holding time 1/(lambda_i + mu_i).
    """
    if i < 1 or i + 1 >= len(omega):
        raise ValueError(f"need 1 <= i and i+1 < len(omega), got i={i}")
    lam = model.birth(i)
    mu = model.death(i)
    one = ctx.one()
    return omega[i] - (lam * omega[i + 1] + mu * omega[i - 1] + one) / (lam + mu)


def delta_residual(
    model: RateModel, delta: list[Real], i: int, ctx: RealContext
) -> Real:
    """Residual of the first-order step relation between delta[i-1] and delta[i].

    Independent series values must satisfy
    delta_i = (mu_i/lambda_i) delta_{i-1} - 1/lambda_i up to rounding.
    """
    if not 1 <= i < len(delta):
        raise ValueError(f"need 1 <= i < len(delta), got i={i}")
    lam = model.birth(i)
    mu = model.death(i)
    one = ctx.one()
    return delta[i] - ((mu / lam) * delta[i - 1] - one / lam)
