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

The arithmetic itself is a set of raw operations that each context carries
(``ctx.add``, ``ctx.mul``, ``ctx.power``, ...) over its raw values,
``float`` or ``Decimal``; a decimal one runs in the context's own
``decimal.Context``, never the thread's.  :class:`Real` operators call
them, and so do the loops that run on raw values (the series engines and
compiled rate expressions), so every result and every error text is
decided once, here.
"""

from __future__ import annotations

import decimal
import math
import operator
import re
from decimal import Decimal

from .errors import ContextMismatchError, PrecisionError

MACHINE = "machine"
EXTENDED = "extended"

_MIN_EXTENDED_DIGITS = 15

# Generous exponent range so extended mode overflows only as a safety net;
# divergence is normally detected by the term-ratio tests long before.
_EMAX = 999_999_999

_INFINITE_OPERAND = "arithmetic on infinity is not defined here"
# A literal, in every context: optional sign, ASCII digits with at most one
# point, optional exponent; no spaces, underscores, NaN or infinity.  Read
# exactly by _EXACT, whatever the thread's decimal context, then rounded.
_LITERAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN, traps=[decimal.Overflow])


def _float_divide(a: float, b: float) -> float:
    if b == 0.0:
        raise ZeroDivisionError("division by zero")
    return a / b


def _float_op(f, isfinite=math.isfinite):
    """``f`` over one or two floats; a result that is not finite is machine overflow."""
    def op(a, b=None):
        try:
            v = f(a) if b is None else f(a, b)
        except OverflowError:  # how math.exp and math.pow report it
            v = math.inf
        if isfinite(v):
            return v
        raise OverflowError("operation overflowed machine precision")
    return op


def _decimal_op(method):
    """A ``decimal.Context`` method of one or two operands, its trapped signals
    raised as :func:`_float_op` raises; callers check domains first."""
    def op(a, b=None):
        try:
            return method(a) if b is None else method(a, b)
        except decimal.Overflow as exc:
            raise OverflowError("operation overflowed the extended context") from exc
        except (decimal.DivisionByZero, decimal.InvalidOperation) as exc:
            # the domain checks leave only a zero divisor: x/0, and 0/0, invalid to decimal
            raise ZeroDivisionError("division by zero") from exc
    return op


class RealContext:
    """Precision contract: machine binary64 or extended decimal digits.

    Raw operations: ``add``, ``sub``, ``mul``, ``div``, ``neg``, ``abs``,
    ``exp``, and the domain-checked ``power``, ``log`` and ``sqrt``;
    ``from_int`` rounds an integer into the context.
    """

    __slots__ = ("mode", "digits", "_dctx", "is_machine", "_literals",
                 "add", "sub", "mul", "div", "neg", "abs", "exp", "from_int",
                 "_round", "_pow", "_log", "_sqrt")

    def __init__(self, mode: str, digits: int | None = None):
        if mode not in (MACHINE, EXTENDED):
            raise ValueError(f"unknown precision mode {mode!r}")
        if mode == EXTENDED:
            if digits is None or not _MIN_EXTENDED_DIGITS <= int(digits) <= decimal.MAX_PREC:
                raise PrecisionError(
                    f"extended mode requires {_MIN_EXTENDED_DIGITS} <= digits"
                    f" <= {decimal.MAX_PREC}, got {digits}"
                )
            self.digits: int | None = int(digits)
            dctx = self._dctx = decimal.Context(
                prec=self.digits,
                rounding=decimal.ROUND_HALF_EVEN,
                Emin=-_EMAX,
                Emax=_EMAX,
                traps=[decimal.Overflow, decimal.InvalidOperation, decimal.DivisionByZero],
            )
            (self.add, self.sub, self.mul, self.div, self.neg, self.abs, self.exp,
             self._round, self._pow, self._log, self._sqrt) = map(_decimal_op, (
                dctx.add, dctx.subtract, dctx.multiply, dctx.divide, dctx.minus, dctx.abs,
                dctx.exp, dctx.create_decimal, dctx.power, dctx.ln, dctx.sqrt))
            self.from_int = lambda n: dctx.plus(Decimal(n))
        else:
            # Machine mode ignores the digits argument.
            self.digits = None
            self._dctx = None
            # negation and abs are exact in binary64
            self.neg, self.abs, self.from_int = operator.neg, abs, float
            (self.add, self.sub, self.mul, self.div, self.exp,
             self._round, self._pow, self._log, self._sqrt) = map(_float_op, (
                operator.add, operator.sub, operator.mul, _float_divide, math.exp,
                float, math.pow, math.log, math.sqrt))
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

    def __reduce__(self):
        # the raw operations are closures: a copy rebuilds them from (mode, digits)
        return RealContext, (self.mode, self.digits)

    def __repr__(self):
        if self.mode == MACHINE:
            return "RealContext(machine)"
        return f"RealContext(extended, digits={self.digits})"

    # -- constructors -----------------------------------------------------

    def real(self, value) -> "Real":
        """Widen ``value`` (int, decimal literal string, Real) into this context.

        Integers are rounded to the context: exact up to 2^53 at machine
        precision, and to ``digits`` significant digits in extended mode
        (at 15 digits, ``10**20 + 1`` becomes ``1.00000000000000E+20``).
        Strings are literals as ``_LITERAL`` defines them, read exactly.
        A Real from an equivalent context passes through; any other Real
        is a hard failure.
        """
        if isinstance(value, bool):
            raise TypeError("bool is not a real number")
        if isinstance(value, int):
            return Real(self, self.from_int(value))
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
        if _LITERAL.fullmatch(text) is None:
            raise ValueError(f"not a real number literal: {text!r}")
        try:
            return Real(self, self._round(_EXACT.create_decimal(text)))
        except (OverflowError, decimal.Overflow):
            raise OverflowError(f"literal {text!r} overflows the context") from None

    def zero(self) -> "Real":
        return self.real(0)

    def one(self) -> "Real":
        return self.real(1)

    def infinity(self) -> "Real":
        """Positive infinity; only divergence classification should mint this."""
        if self.is_machine:
            return Real(self, math.inf)
        return Real(self, Decimal("Infinity"))

    def reals(self, values) -> list["Real"]:
        """Raw values of this context as a list of Reals."""
        return [Real(self, v) for v in values]

    # -- raw operations with a domain ----------------------------------------

    def power(self, a, b):
        """``a^b``: ``x^0 = 1`` for every x; a negative base takes integer exponents only."""
        if b == 0:
            return self.from_int(1)
        if a == 0 and b < 0:
            raise ZeroDivisionError("zero raised to a negative power")
        if a < 0 and not (b.is_integer() if self.is_machine else b == b.to_integral_value()):
            raise ValueError("negative base raised to a non-integer power")
        return self._pow(a, b)

    def log(self, a):
        """Natural logarithm; rejects non-positive arguments."""
        if a <= 0:
            raise ValueError("log of a non-positive value")
        return self._log(a)

    def sqrt(self, a):
        """Square root; rejects negative arguments."""
        if a < 0:
            raise ValueError("sqrt of a negative value")
        return self._sqrt(a)


def make_context(mode: str, digits: int | None = None) -> RealContext:
    """Build a :class:`RealContext`.

    ``mode`` is ``"machine"`` or ``"extended"``.  Machine mode ignores
    ``digits``; extended mode requires ``15 <= digits <= decimal.MAX_PREC``.
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

    raw = property(operator.attrgetter("_v"),
                   doc="The ``float`` or ``Decimal`` this value carries, for the raw operations.")

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

    def _binop(self, other, op: str):
        """``self <op> other`` by the context's raw operation named ``op``."""
        a, ctx = self._v, self.ctx
        if other.__class__ is Real and other.ctx is ctx:
            o = other._v  # the common case, without a call to _coerce
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        if (math.isinf(a) or math.isinf(o)) if ctx.is_machine else (
                a.is_infinite() or o.is_infinite()):
            raise ValueError(_INFINITE_OPERAND)
        return Real(ctx, getattr(ctx, op)(a, o))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return self._binop(other, "add")

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self._binop(other, "sub")

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Real(self.ctx, o).__sub__(self)

    def __mul__(self, other):
        return self._binop(other, "mul")

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        return self._binop(other, "div")

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Real(self.ctx, o).__truediv__(self)

    def __pow__(self, other):
        """``x^0 = 1`` for finite x; a negative base takes integer exponents only."""
        return self._binop(other, "power")

    def __neg__(self):
        return Real(self.ctx, self.ctx.neg(self._v))

    def __abs__(self):
        return Real(self.ctx, self.ctx.abs(self._v))

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
        except ContextMismatchError:
            raise
        except TypeError:  # not a number: the other operand decides
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
    return exp(ctx.one())


def exp(x: Real) -> Real:
    return Real(x.ctx, x.ctx.exp(x._v))


def log(x: Real) -> Real:
    """Natural logarithm; rejects non-positive arguments."""
    return Real(x.ctx, x.ctx.log(x._v))


def sqrt(x: Real) -> Real:
    """Square root; rejects negative arguments."""
    return Real(x.ctx, x.ctx.sqrt(x._v))
