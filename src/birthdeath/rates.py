"""Birth-and-death rate models.

A :class:`RateModel` answers per-state transition rates for state indexes
n >= 1: ``birth(n)`` is the n -> n+1 rate and ``death(n)`` the n -> n-1
rate.  State 0 is absorbing by construction; the engines never ask for its
rates, and the model refuses to answer for n < 1.

Rates must be strictly positive; a zero or negative value raises
:class:`NonPositiveRateError` at the first offending index.  Results are
memoized per index so repeated series passes are consistent and cheap
(the cache is idempotent, so concurrent readers are safe).
"""

from __future__ import annotations

from typing import Callable

from . import rate_expr
from .arithmetic import Real, RealContext
from .errors import NonPositiveRateError


class RateModel:
    """Pair of per-state rate functions with positivity checking."""

    __slots__ = ("label", "_birth_fn", "_death_fn", "_birth_memo", "_death_memo")

    def __init__(
        self,
        birth: Callable[[int], Real],
        death: Callable[[int], Real],
        label: str = "custom",
    ):
        self.label = label
        self._birth_fn = birth
        self._death_fn = death
        self._birth_memo: dict[int, Real] = {}
        self._death_memo: dict[int, Real] = {}

    def __repr__(self):
        return f"RateModel({self.label})"

    def _query(self, which: str, fn, memo, n: int) -> Real:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(
                f"rate queried at n={n!r}; state 0 is absorbing and only n >= 1 is defined"
            )
        cached = memo.get(n)
        if cached is not None:
            return cached
        value = fn(n)
        if not isinstance(value, Real):
            raise TypeError(f"rate function returned {type(value).__name__}, expected Real")
        if not (value > 0):
            raise NonPositiveRateError(which, n, value.literal())
        memo[n] = value
        return value

    def birth(self, n: int) -> Real:
        """Rate of the n -> n+1 transition."""
        return self._query("lambda", self._birth_fn, self._birth_memo, n)

    def death(self, n: int) -> Real:
        """Rate of the n -> n-1 transition."""
        return self._query("mu", self._death_fn, self._death_memo, n)


def constant_model(lam: Real, mu: Real) -> RateModel:
    """State-independent rates; rejects non-positive values up front."""
    if not (lam > 0):
        raise NonPositiveRateError("lambda", None, lam.literal())
    if not (mu > 0):
        raise NonPositiveRateError("mu", None, mu.literal())
    label = f"constant lambda={lam.literal()} mu={mu.literal()}"
    return RateModel(lambda n: lam, lambda n: mu, label=label)


def expr_model(lambda_src: str, mu_src: str, ctx: RealContext) -> RateModel:
    """Build a model from two expression strings over ``n``.

    Parse errors surface immediately; domain errors and positivity
    violations surface at the first queried index that triggers them.
    """
    birth_ast = rate_expr.parse(lambda_src)
    death_ast = rate_expr.parse(mu_src)
    return RateModel(
        lambda n: rate_expr.eval_expr(birth_ast, n, ctx),
        lambda n: rate_expr.eval_expr(death_ast, n, ctx),
        label=f"lambda={lambda_src} mu={mu_src}",
    )
