import math
from decimal import Decimal

import pytest

from birthdeath import (
    ContextMismatchError,
    PrecisionError,
    constant_e,
    make_context,
)
from birthdeath import arithmetic

import oracles


def test_machine_context_defaults():
    ctx = make_context("machine")
    assert ctx.is_machine
    assert ctx.digits is None
    # digits argument is ignored in machine mode
    assert make_context("machine", 99).digits is None


def test_extended_context_requires_digits():
    ctx = make_context("extended", 70)
    assert not ctx.is_machine
    assert ctx.digits == 70
    with pytest.raises(PrecisionError):
        make_context("extended", 14)
    with pytest.raises(PrecisionError):
        make_context("extended")


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        make_context("quad")


def test_machine_e_is_float_e():
    ctx = make_context("machine")
    assert float(constant_e(ctx)) == math.e


def test_extended_e_30_digits():
    ctx = make_context("extended", 30)
    err = oracles.rel_err_decimal(constant_e(ctx).literal(), oracles.E_30)
    assert err < Decimal("1e-29")


def test_extended_e_70_digits_matches_taylor_oracle():
    ctx = make_context("extended", 70)
    assert constant_e(ctx).literal() == oracles.E_70
    # and the frozen string itself agrees with the independent Taylor sum
    hp = oracles.highprec(90)
    taylor = hp.create_decimal(oracles.taylor_e())
    assert abs(hp.subtract(Decimal(oracles.E_70), taylor)) < Decimal("1e-69")


def _sum_inverse_factorials(ctx, terms=50):
    total = ctx.zero()
    fact = ctx.one()
    for k in range(terms):
        if k > 0:
            fact = fact * k
        total = total + ctx.one() / fact
    return total


def test_determinism_bit_identical():
    for ctx in (make_context("machine"), make_context("extended", 40)):
        a = _sum_inverse_factorials(ctx)
        b = _sum_inverse_factorials(ctx)
        assert a == b
        assert a.literal() == b.literal()


def test_monotone_refinement_30_vs_70_digits():
    s30 = _sum_inverse_factorials(make_context("extended", 30))
    s70 = _sum_inverse_factorials(make_context("extended", 70))
    err = oracles.rel_err_decimal(s30.literal(), Decimal(s70.literal()))
    assert err < Decimal("1e-25")


def test_context_mixing_is_hard_failure():
    a = make_context("extended", 30).real(1)
    b = make_context("extended", 40).real(1)
    with pytest.raises(ContextMismatchError):
        a + b
    with pytest.raises(ContextMismatchError):
        a < b
    with pytest.raises(ContextMismatchError):
        a >= b
    with pytest.raises(ContextMismatchError):
        a.ctx.real(b)
    # contexts with equal mode and digits are interchangeable
    c = make_context("extended", 30).real(2)
    assert float(a + c) == 3.0
    assert a.ctx.real(c) is c


def test_machine_and_extended_do_not_mix():
    a = make_context("machine").real(1)
    b = make_context("extended", 30).real(1)
    with pytest.raises(ContextMismatchError):
        a * b
    with pytest.raises(ContextMismatchError):
        a == b
    with pytest.raises(ContextMismatchError):
        a != b


def test_int_operands_widen_exactly():
    ctx = make_context("extended", 15)
    v = ctx.real(10 ** 6)
    assert v.literal() == "1000000"
    assert float(ctx.real(3) * 2) == 6.0
    assert float(1 - ctx.real(3)) == -2.0
    assert float(6 / ctx.real(3)) == 2.0


def test_overflow_is_error_not_infinity():
    ctx = make_context("machine")
    big = ctx.real("1e308")
    with pytest.raises(OverflowError):
        big * 10
    e = make_context("extended", 20)
    bige = e.real("1e999999999")
    with pytest.raises(OverflowError):
        bige * bige
    # machine overflow reads the same from an operator, ^ and exp
    for overflow in (lambda: big * 10, lambda: ctx.real(10) ** ctx.real(400),
                     lambda: arithmetic.exp(ctx.real(1000))):
        with pytest.raises(OverflowError, match="^operation overflowed machine precision$"):
            overflow()


def test_infinity_only_by_construction():
    for ctx in (make_context("machine"), make_context("extended", 20)):
        inf = ctx.infinity()
        assert inf.is_infinite()
        assert inf > ctx.real(10 ** 9)
        assert inf.literal() == "inf"
        with pytest.raises(ValueError):
            inf + ctx.one()


def test_division_by_zero():
    for ctx in (make_context("machine"), make_context("extended", 20)):
        with pytest.raises(ZeroDivisionError):
            ctx.one() / ctx.zero()
        with pytest.raises(ZeroDivisionError, match="^division by zero$"):
            ctx.zero() / ctx.zero()


def test_pow_domain_errors():
    for ctx in (make_context("machine"), make_context("extended", 20)):
        with pytest.raises(ValueError):
            ctx.real(-2) ** ctx.real("0.5")
        assert float(ctx.real(-2) ** ctx.real(3)) == -8.0
        with pytest.raises(ZeroDivisionError):
            ctx.zero() ** ctx.real(-1)
        # one domain in both precisions, and one wording
        for base in ("0", "-2.5", "3", "1e-300"):
            assert (ctx.real(base) ** ctx.zero()).literal() == ctx.one().literal()
        with pytest.raises(ValueError, match="^negative base raised to a non-integer power$"):
            ctx.real(-2) ** ctx.real("0.5")
        with pytest.raises(ZeroDivisionError, match="^zero raised to a negative power$"):
            ctx.zero() ** ctx.real(-1)
        with pytest.raises(ValueError, match="^arithmetic on infinity is not defined here$"):
            ctx.infinity() ** ctx.zero()


def test_log_sqrt_domains():
    for ctx in (make_context("machine"), make_context("extended", 20)):
        with pytest.raises(ValueError):
            arithmetic.log(ctx.zero())
        with pytest.raises(ValueError):
            arithmetic.log(-ctx.one())
        with pytest.raises(ValueError):
            arithmetic.sqrt(-ctx.one())
        assert float(arithmetic.sqrt(ctx.real(4))) == 2.0
        assert float(arithmetic.log(ctx.real(4))) == pytest.approx(2 * math.log(2), rel=1e-15)


def test_literal_round_trips_machine():
    ctx = make_context("machine")
    for text in ("0.1", "1.7182818284590455", "3", "1e-14"):
        v = ctx.real(text)
        assert float(v.literal()) == float(v)


def test_literal_rejects_garbage():
    ctx = make_context("machine")
    with pytest.raises(ValueError):
        ctx.real("nan")
    with pytest.raises(ValueError):
        ctx.real("five")
    e = make_context("extended", 20)
    with pytest.raises(ValueError):
        e.real("five")
    # one literal rule in every context; only the range is the context's
    for c in (ctx, e):
        for text in ("nan", "inf", "-Infinity", "1_000", " 1", "1 ", "0x10", "", "1e", "+", "\u0661"):
            with pytest.raises(ValueError, match="^not a real number literal: "):
                c.real(text)
        for text in ("1.", ".5", "+2", "-0", "2.5E-3"):
            assert float(c.real(text)) == float(text)
        with pytest.raises(OverflowError, match="^literal '1e999999999999' overflows the context$"):
            c.real("1e999999999999")
    # 1e999 overflows binary64 only
    with pytest.raises(OverflowError, match="^literal '1e999' overflows the context$"):
        ctx.real("1e999")
    assert e.real("1e999").literal() == "1E+999"


def test_real_rejects_other_types():
    # floats are rejected too: a binary literal would carry its rounding
    # error into an extended context
    for ctx in (make_context("machine"), make_context("extended", 20)):
        for value in (True, 0.5, None):
            with pytest.raises(TypeError):
                ctx.real(value)


def test_total_order_on_finite_values():
    ctx = make_context("extended", 20)
    values = [ctx.real(x) for x in ("3", "-1", "0", "2.5")]
    ordered = sorted(values)
    assert [float(v) for v in ordered] == [-1.0, 0.0, 2.5, 3.0]
    assert values[0] >= values[3] and not values[2] >= values[3]
    # a Real from an equal but distinct context compares through _coerce
    assert make_context("extended", 20).real(3) >= values[0]
    # a non-number is not equal, and is not ordered
    assert values[0].__eq__("3") is NotImplemented
    assert values[0] != "3"
    with pytest.raises(TypeError):
        values[0] < "3"


def test_values_survive_pickling():
    import pickle

    for ctx in (make_context("machine"), make_context("extended", 30)):
        x = pickle.loads(pickle.dumps(ctx.real("1.5")))
        assert x.ctx == ctx
        assert (x * x).literal() == (ctx.real("1.5") * ctx.real("1.5")).literal()
