"""Report dataclasses and the classification / method vocabulary."""

from __future__ import annotations

from dataclasses import dataclass, field

from .arithmetic import Real

# method tags: every output says which algorithm produced it
STABLE_SERIES = "StableSeries"
NAIVE_RECURSION = "NaiveRecursion"

# classification strings (serialized verbatim; never numeric sentinels)
CERTAIN = "Certain"
UNCERTAIN = "Uncertain"
FINITE = "Finite"
INFINITE = "Infinite"
NOT_CERTAIN_EXTINCTION = "NotCertainExtinction"
INCONCLUSIVE = "Inconclusive"

# violation kinds recorded by the naive engines
VIOLATION_OUT_OF_RANGE = "out_of_range"
VIOLATION_NEGATIVE = "negative"
VIOLATION_NON_MONOTONE = "non_monotone"
VIOLATION_DEVIATION = "deviation"
VIOLATION_OVERFLOW = "overflow"


@dataclass(frozen=True)
class Violation:
    """One recorded invariant breach at a specific index."""

    index: int
    kind: str


@dataclass(frozen=True)
class ExtinctionReport:
    """Extinction probabilities a[0..i_max] and their increments d[1..i_max].

    ``a[0]`` is exactly 1.  For ``Certain`` classification every a[i] is 1
    and ``series_sum`` is None; for ``Uncertain`` it carries the convergent
    normalizing sum.  ``d[i] == a[i-1] - a[i]`` exactly as computed.  An
    ``Inconclusive`` report (the normalizing sum ran out of terms) has
    empty ``a`` and ``d``, no ``series_sum``, and the terms summed.
    """

    classification: str
    series_sum: Real | None
    a: list[Real]
    d: list[Real]
    terms_used: int
    method: str
    violations: list[Violation] = field(default_factory=list)
    low_confidence: bool = False


@dataclass(frozen=True)
class HittingTimeReport:
    """Expected times to absorption.

    ``delta[i]`` is the expected time to first reach state i from state
    i+1; ``omega[i]`` the expected time to reach state 0 from state i,
    accumulated as the prefix sum of delta.  ``omega[0]`` is exactly 0.
    ``terms_used`` counts the terms of the one series that seeds delta at
    the top index (0 when extinction is not certain, and no series is
    summed); ``low_confidence`` flags a report resting on a verdict reached
    only at the term budget: certain extinction (the premise of every
    ``Finite`` or ``Infinite`` report) or an infinite top delta.  An
    ``Inconclusive`` report has empty ``delta`` and ``omega`` and counts
    the terms of the series that ran out, the normalizing sum or the top
    delta.
    """

    classification: str
    delta: list[Real]
    omega: list[Real]
    method: str
    terms_used: int
    violations: list[Violation] = field(default_factory=list)
    low_confidence: bool = False


def first_violation(violations: list[Violation]) -> Violation | None:
    """Earliest recorded violation, or None."""
    if not violations:
        return None
    return min(violations, key=lambda v: v.index)
