"""Truncation policy and verdict machinery for positive infinite series.

Every infinite sum in this package (the extinction normalizer and each
expected-passage-time series) runs through :func:`sum_positive_series`,
which accumulates terms, raw values of the context (``float`` or
``Decimal``) added by the context's own raw operations, until it can
defend one of three verdicts:

* ``Converged`` -- the latest term is below ``rel_tol`` of the running
  sum AND the last ``DIVERGENCE_WINDOW`` consecutive term ratios were
  below 1, so the tail is a controlled geometric remainder.
* ``Diverged`` -- ``DIVERGENCE_WINDOW`` consecutive ratios at or above 1,
  or the running sum overflowed; both are decisive.
  Hitting the term budget with ratios straddling 1 while the tail test
  keeps failing is also reported as divergence, flagged low-confidence.
* :class:`InconclusiveSeriesError` -- the term budget ran out with no
  defensible verdict (e.g. harmonic-like terms that shrink but whose sum
  still grows), or a term underflowed to zero; the caller must choose,
  not the summator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .arithmetic import Real, RealContext
from .errors import InconclusiveSeriesError

__all__ = [
    "DIVERGENCE_WINDOW", "SeriesPolicy", "Converged", "Diverged", "SeriesOutcome",
    "sum_positive_series",
]

# consecutive term ratios that must agree before a ratio-based verdict
DIVERGENCE_WINDOW = 64


@dataclass(frozen=True)
class SeriesPolicy:
    """Knobs deciding when a numerically summed series is settled.

    rel_tol: relative tail tolerance, 0 < rel_tol < 1.
    max_terms: hard budget before giving up (> DIVERGENCE_WINDOW, so that a
        full window of ratios fits in it).
    """

    rel_tol: Real
    max_terms: int

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.rel_tol < 1):
            raise ValueError("rel_tol must satisfy 0 < rel_tol < 1")
        if self.max_terms <= DIVERGENCE_WINDOW:
            raise ValueError(f"max_terms must be > {DIVERGENCE_WINDOW}")

    @classmethod
    def default(cls, ctx: RealContext) -> "SeriesPolicy":
        """Context-scaled defaults: tail tolerance two digits above epsilon."""
        if ctx.is_machine:
            rel_tol = ctx.real("1e-14")
        else:
            rel_tol = ctx.real(f"1e-{ctx.digits - 2}")
        return cls(rel_tol=rel_tol, max_terms=10 ** 6)


@dataclass(frozen=True)
class Converged:
    total: Real
    terms: int


@dataclass(frozen=True)
class Diverged:
    terms: int
    low_confidence: bool = False


SeriesOutcome = Union[Converged, Diverged]


def sum_positive_series(
    terms: Iterator, ctx: RealContext, policy: SeriesPolicy | None = None
) -> SeriesOutcome:
    """Sum a series of positive terms, raw values of ``ctx``, under ``policy``.

    ``policy`` defaults to ``SeriesPolicy.default(ctx)``.  The iterator
    must yield terms in order; an ``OverflowError`` raised while producing
    term k means ``Diverged(k)``.  ``Converged.total`` is a Real.  Terms
    are products of strictly positive rates, so a term equal to zero can
    only have underflowed; the terms after it are unknown and may grow
    again, so it raises :class:`InconclusiveSeriesError` rather than ending
    the sum.
    """
    if policy is None:
        policy = SeriesPolicy.default(ctx)
    add, mul, rel_tol = ctx.add, ctx.mul, ctx.real(policy.rel_tol).raw
    total = ctx.zero().raw
    prev = None
    window = DIVERGENCE_WINDOW
    below_streak = 0
    growing_streak = 0
    count = 0
    it = iter(terms)

    while count < policy.max_terms:
        # overflow while producing or accumulating a term is decisive growth
        try:
            term = next(it)
        except OverflowError:
            return Diverged(count + 1)
        except StopIteration:
            raise InconclusiveSeriesError(count, "series terms ended unexpectedly") from None
        count += 1
        try:
            if term == 0:
                raise InconclusiveSeriesError(
                    count, f"series term {count} underflowed to zero; raise the precision"
                )
            if prev is not None:
                below = term < prev
                below_streak = below_streak + 1 if below else 0
                growing_streak = 0 if below else growing_streak + 1
            total = add(total, term)
        except OverflowError:
            return Diverged(count)
        if growing_streak >= window:
            return Diverged(count)
        if below_streak >= window and term < mul(rel_tol, total):
            return Converged(Real(ctx, total), count)
        prev = term

    # Budget exhausted without a streak verdict.  The budget exceeds the
    # window, so the last window is full, and it is not all growth (that
    # returned above): unless every ratio in it fell, it straddles 1.
    if below_streak < window and not (prev < mul(rel_tol, total)):
        return Diverged(count, low_confidence=True)
    raise InconclusiveSeriesError(count)
