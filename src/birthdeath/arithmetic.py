"""Precision-parameterized real arithmetic.

Every engine in this package runs against a :class:`RealContext`, which is
either machine precision (IEEE-754 binary64) or extended precision with a
chosen number of significant decimal digits (backed by the stdlib
``decimal`` module, one isolated ``decimal.Context`` per ``RealContext``,
no global state).  All operations round to the owning context's precision,
so repeated evaluation of the same expression is bit-identical.

Values are immutable :class:`Real` wrappers.  Combining values from
contexts with different precision raises :class:`ContextMismatchError`;
positive infinity is representable (for infinite expected times) but never
produced by arithmetic, which raises ``OverflowError`` instead.
"""

from __future__ import annotations

import decimal
import math
import operator
from decimal import Decimal

from .errors import ContextMismatchError, PrecisionError

MACHINE = "machine"
EXTENDED = "extended"

_MIN_EXTENDED_DIGITS = 15

# Generous exponent range so extended mode overflows only as a safety net;
# divergence is normally detected by the term-ratio tests long before.
_EMAX = 999_999_999

_INFINITE_OPERAND = "arithmetic on infinity is not defined here"


def _float_divide(a: float, b: float) -> float:
    if b == 0.0:
        raise ZeroDivisionError("division by zero")
    return a / b


class RealContext:
    """Precision contract: machine binary64 or extended decimal digits."""

    __slots__ = ("mode", "digits", "_dctx", "is_machine", "_literals")

    def __init__(self, mode: str, digits: int | None = None):
        if mode not in (MACHINE, EXTENDED):
            raise ValueError(f"unknown precision mode {mode!r}")
        if mode == EXTENDED:
            if digits is None or int(digits) < _MIN_EXTENDED_DIGITS:
                raise PrecisionError(
                    f"extended mode requires digits >= {_MIN_EXTENDED_DIGITS}, got {digits}"
                )
            self.digits: int | None = int(digits)
            self._dctx = decimal.Context(
                prec=self.digits,
                rounding=decimal.ROUND_HALF_EVEN,
                Emin=-_EMAX,
                Emax=_EMAX,
                traps=[decimal.Overflow, decimal.InvalidOperation, decimal.DivisionByZero],
            )
        else:
            # Machine mode ignores the digits argument.
            self.digits = None
            self._dctx = None
        self.mode = mode
        self.is_machine = mode == MACHINE
        self._literals: dict[str, Real] = {}

    # Contexts with equal (mode, digits) round identically and are
    # interchangeable; value mixing checks use this equivalence.
    def __eq__(self, other):
        return other is self or (
            isinstance(other, RealContext)
            and self.mode == other.mode
            and self.digits == other.digits
        )

    def __hash__(self):
        return hash((self.mode, self.digits))

    def __repr__(self):
        if self.mode == MACHINE:
            return "RealContext(machine)"
        return f"RealContext(extended, digits={self.digits})"

    # -- constructors -----------------------------------------------------

    def real(self, value) -> "Real":
        """Widen ``value`` (int, decimal literal string, Real) into this context.

        Integers are converted exactly.  Strings are decimal literals with
        optional fraction and exponent.  A Real from an equivalent context
        passes through; any other Real is a hard failure.
        """
        if isinstance(value, bool):
            raise TypeError("bool is not a real number")
        if isinstance(value, int):
            if self.is_machine:
                return Real(self, float(value))
            return Real(self, self._dctx.plus(Decimal(value)))
        if isinstance(value, str):
            literal = self._literals.get(value)
            if literal is None:
                literal = self._literals[value] = self._from_literal(value)
            return literal
        if isinstance(value, Real):
            if value.ctx != self:
                raise ContextMismatchError(
                    f"value from {value.ctx!r} used under {self!r}"
                )
            return value
        raise TypeError(f"cannot make a Real from {type(value).__name__}")

    def _from_literal(self, text: str) -> "Real":
        if self.is_machine:
            v = float(text)
            if math.isnan(v):
                raise ValueError(f"not a real number literal: {text!r}")
            return self._wrap(v)
        try:
            v = self._dctx.create_decimal(text)
        except decimal.InvalidOperation:
            raise ValueError(f"not a real number literal: {text!r}") from None
        if not v.is_finite():
            raise OverflowError(f"literal {text!r} overflows the context")
        return Real(self, v)

    def zero(self) -> "Real":
        return self.real(0)

    def one(self) -> "Real":
        return self.real(1)

    def infinity(self) -> "Real":
        """Positive infinity; only divergence classification should mint this."""
        if self.is_machine:
            return Real(self, math.inf)
        return Real(self, Decimal("Infinity"))

    # -- internal op plumbing ---------------------------------------------

    def _wrap(self, v: float) -> "Real":
        if not math.isfinite(v):
            raise OverflowError("operation overflowed machine precision")
        return Real(self, v)

    def _dec(self, fn, *args):
        try:
            return fn(*args)
        except decimal.Overflow as exc:
            raise OverflowError("operation overflowed the extended context") from exc
        except decimal.DivisionByZero as exc:
            raise ZeroDivisionError("division by zero") from exc
        except decimal.InvalidOperation as exc:
            raise ValueError(f"invalid operation: {exc}") from exc


def make_context(mode: str, digits: int | None = None) -> RealContext:
    """Build a :class:`RealContext`.

    ``mode`` is ``"machine"`` or ``"extended"``.  Machine mode ignores
    ``digits``; extended mode requires ``digits >= 15``.
    """
    return RealContext(mode, digits)


class Real:
    """An immutable real number carried at its context's precision.

    Supports ``+ - * / **``, negation, ``abs`` and total ordering.  Plain
    ``int`` operands are widened exactly; everything else must be a Real
    from an equivalent context.
    """

    __slots__ = ("ctx", "_v")

    def __init__(self, ctx: RealContext, value):
        self.ctx = ctx
        self._v = value

    # -- introspection -----------------------------------------------------

    def is_infinite(self) -> bool:
        if self.ctx.is_machine:
            return math.isinf(self._v)
        return self._v.is_infinite()

    def is_zero(self) -> bool:
        return self._v == 0

    def literal(self) -> str:
        """Decimal-string form carrying the context's full precision."""
        if self.is_infinite():
            return "inf" if self._v > 0 else "-inf"
        if self.ctx.is_machine:
            return repr(self._v)
        return str(self._v)

    def __float__(self) -> float:
        return float(self._v)

    def __repr__(self):
        return f"Real({self.literal()}, {self.ctx!r})"

    def __hash__(self):
        return hash((self.ctx, self._v))

    # -- operand handling ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Real):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatchError(
                    f"mixing values from {self.ctx!r} and {other.ctx!r}"
                )
            return other._v
        if isinstance(other, int) and not isinstance(other, bool):
            if self.ctx.is_machine:
                return float(other)
            return Decimal(other)
        return None

    def _guard_finite(self, *operands):
        for v in operands:
            if isinstance(v, float):
                if math.isinf(v):
                    raise ValueError(_INFINITE_OPERAND)
            elif isinstance(v, Decimal) and v.is_infinite():
                raise ValueError(_INFINITE_OPERAND)

    def _binop(self, other, f_float, dec_op: str):
        """``self <op> other``: f_float at machine precision, else the named
        method of the context's ``decimal.Context``."""
        a, ctx = self._v, self.ctx
        if other.__class__ is Real and other.ctx is ctx:
            o = other._v  # the common case, without a call to _coerce
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        if ctx.is_machine:
            if math.isinf(a) or math.isinf(o):
                raise ValueError(_INFINITE_OPERAND)
            v = f_float(a, o)
            if not math.isfinite(v):
                raise OverflowError("operation overflowed machine precision")
            return Real(ctx, v)
        if a.is_infinite() or o.is_infinite():
            raise ValueError(_INFINITE_OPERAND)
        return Real(ctx, ctx._dec(getattr(ctx._dctx, dec_op), a, o))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return self._binop(other, operator.add, "add")

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self._binop(other, operator.sub, "subtract")

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Real(self.ctx, o).__sub__(self)

    def __mul__(self, other):
        return self._binop(other, operator.mul, "multiply")

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        return self._binop(other, _float_divide, "divide")

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Real(self.ctx, o).__truediv__(self)

    def __pow__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._guard_finite(self._v, o)
        ctx = self.ctx
        if self._v == 0 and o < 0:
            raise ZeroDivisionError("zero raised to a negative power")
        if ctx.is_machine:
            try:
                return ctx._wrap(math.pow(self._v, o))
            except ValueError:
                raise ValueError(
                    "negative base raised to a non-integer power"
                ) from None
        return Real(ctx, ctx._dec(ctx._dctx.power, self._v, o))

    def __neg__(self):
        if self.ctx.is_machine:
            return Real(self.ctx, -self._v)
        return Real(self.ctx, self.ctx._dec(self.ctx._dctx.minus, self._v))

    def __abs__(self):
        if self.ctx.is_machine:
            return Real(self.ctx, abs(self._v))
        return Real(self.ctx, self.ctx._dec(self.ctx._dctx.abs, self._v))

    # -- comparisons (total order; infinity compares greater) ----------------

    def _cmp_operand(self, other):
        if other.__class__ is Real and other.ctx is self.ctx:
            return other._v
        if other.__class__ is int:
            return other  # float and Decimal compare exactly with int
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare Real with {type(other).__name__}")
        return o

    def __eq__(self, other):
        try:
            o = self._cmp_operand(other)
        except TypeError:
            return NotImplemented
        return self._v == o

    def __lt__(self, other):
        return self._v < self._cmp_operand(other)

    def __le__(self, other):
        return self._v <= self._cmp_operand(other)

    def __gt__(self, other):
        return self._v > self._cmp_operand(other)

    def __ge__(self, other):
        return self._v >= self._cmp_operand(other)


# -- context-aware elementary functions --------------------------------------


def constant_e(ctx: RealContext) -> Real:
    """Euler's number correct to the context's precision."""
    if ctx.is_machine:
        return Real(ctx, math.e)
    return Real(ctx, ctx._dec(ctx._dctx.exp, Decimal(1)))


def exp(x: Real) -> Real:
    ctx = x.ctx
    if ctx.is_machine:
        return ctx._wrap(math.exp(x._v))
    return Real(ctx, ctx._dec(ctx._dctx.exp, x._v))


def log(x: Real) -> Real:
    """Natural logarithm; rejects non-positive arguments."""
    if x <= 0:
        raise ValueError("log of a non-positive value")
    ctx = x.ctx
    if ctx.is_machine:
        return ctx._wrap(math.log(x._v))
    return Real(ctx, ctx._dec(ctx._dctx.ln, x._v))


def sqrt(x: Real) -> Real:
    """Square root; rejects negative arguments."""
    if x < 0:
        raise ValueError("sqrt of a negative value")
    ctx = x.ctx
    if ctx.is_machine:
        return ctx._wrap(math.sqrt(x._v))
    return Real(ctx, ctx._dec(ctx._dctx.sqrt, x._v))
