"""Birth-and-death rate models.

A :class:`RateModel` answers per-state transition rates for state indexes
n >= 1: ``birth(n)`` is the n -> n+1 rate and ``death(n)`` the n -> n-1
rate.  State 0 is absorbing by construction; the engines never ask for its
rates, and the model refuses to answer for n < 1.

Each rate has one table, filled as states are read: a state nobody reads
is never evaluated, and none is evaluated twice.  Rates must be strictly
positive; a zero or negative value raises :class:`NonPositiveRateError`
when its state is first read, so at the first offending index in read
order.  ``birth``/``death`` answer with the table's ``Real``; the engines
read the same tables as raw values through :meth:`RateModel.raw`.
Filling is idempotent, so concurrent readers are safe.
"""

from __future__ import annotations

from typing import Callable

from . import rate_expr
from .arithmetic import Real, RealContext
from .errors import ContextMismatchError, NonPositiveRateError


class RateModel:
    """Pair of per-state rate functions with positivity checking."""

    __slots__ = ("label", "_birth_fn", "_death_fn", "_births", "_deaths", "_ctx")

    def __init__(
        self,
        birth: Callable[[int], Real],
        death: Callable[[int], Real],
        label: str = "custom",
    ):
        self.label = label
        self._birth_fn = birth
        self._death_fn = death
        self._births: dict[int, Real] = {}
        self._deaths: dict[int, Real] = {}
        # the context of every value in the tables, fixed by the first read
        self._ctx: RealContext | None = None

    def __repr__(self):
        return f"RateModel({self.label})"

    def _fill(self, which: str, fn, table: dict, n: int) -> Real:
        value = fn(n)
        if not isinstance(value, Real):
            raise TypeError(f"rate function returned {type(value).__name__}, expected Real")
        if value.ctx is not self._ctx:
            self._use(value.ctx)
        if not (value.raw > 0):
            raise NonPositiveRateError(which, n, value.literal())
        table[n] = value
        return value

    def _use(self, ctx: RealContext) -> None:
        if self._ctx is None:
            self._ctx = ctx
        elif ctx != self._ctx:
            raise ContextMismatchError(f"rates from {ctx!r} mixed with rates from {self._ctx!r}")

    def _query(self, which: str, fn, table: dict, n: int) -> Real:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(
                f"rate queried at n={n!r}; state 0 is absorbing and only n >= 1 is defined"
            )
        return table.get(n) or self._fill(which, fn, table, n)

    def birth(self, n: int) -> Real:
        """Rate of the n -> n+1 transition."""
        return self._query("lambda", self._birth_fn, self._births, n)

    def death(self, n: int) -> Real:
        """Rate of the n -> n-1 transition."""
        return self._query("mu", self._death_fn, self._deaths, n)

    def raw(self, ctx: RealContext) -> tuple[Callable[[int], object], Callable[[int], object]]:
        """Readers ``n -> raw value`` of the birth and the death table, under ``ctx``.

        They read and fill the tables that :meth:`birth` and :meth:`death`
        answer from, and skip the check of ``n``: callers pass n >= 1.
        Rates from a context other than ``ctx`` raise
        :class:`ContextMismatchError`, as mixing two Reals does.
        """
        self._use(ctx)

        def reader(which, fn, table):
            get, fill = table.get, self._fill

            def read(n):
                return (get(n) or fill(which, fn, table, n)).raw
            return read

        return (reader("lambda", self._birth_fn, self._births),
                reader("mu", self._death_fn, self._deaths))


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
    Each expression is compiled once, for ``ctx``.
    """
    birth_ast = rate_expr.parse(lambda_src)
    death_ast = rate_expr.parse(mu_src)
    birth = rate_expr.compile_expr(birth_ast, ctx)
    death = rate_expr.compile_expr(death_ast, ctx)
    return RateModel(
        lambda n: Real(ctx, birth(n)),
        lambda n: Real(ctx, death(n)),
        label=f"lambda={lambda_src} mu={mu_src}",
    )
