import pytest

from birthdeath import (
    ContextMismatchError,
    ExprSyntaxError,
    NonPositiveRateError,
    RateModel,
    constant_model,
    expr_model,
    make_context,
    omega_stable,
    pi_product,
)


def test_constant_model_values(mctx):
    m = constant_model(mctx.real(1), mctx.real(2))
    for n in (1, 5, 1000):
        assert float(m.birth(n)) == 1.0
        assert float(m.death(n)) == 2.0


def test_constant_model_rejects_non_positive(mctx):
    with pytest.raises(NonPositiveRateError):
        constant_model(mctx.zero(), mctx.one())
    with pytest.raises(NonPositiveRateError):
        constant_model(mctx.one(), mctx.real(-1))


def test_expr_model_basic(mctx):
    m = expr_model("1", "n", mctx)
    assert float(m.birth(17)) == 1.0
    assert float(m.death(17)) == 17.0


def test_expr_model_parse_error_is_immediate(mctx):
    with pytest.raises(ExprSyntaxError):
        expr_model("1 +", "n", mctx)


def test_positivity_checked_at_first_offending_query(mctx):
    m = expr_model("n - 5", "1", mctx)
    assert float(m.birth(6)) == 1.0
    with pytest.raises(NonPositiveRateError) as exc_info:
        m.birth(5)
    assert exc_info.value.index == 5
    assert exc_info.value.which == "lambda"
    with pytest.raises(NonPositiveRateError):
        m.birth(3)  # negative value, also rejected


def test_state_zero_is_never_answered(mctx):
    m = expr_model("1", "n", mctx)
    with pytest.raises(ValueError):
        m.birth(0)
    with pytest.raises(ValueError):
        m.death(-2)


def test_memoization_returns_identical_objects(mctx):
    m = expr_model("1", "n", mctx)
    assert m.death(9) is m.death(9)


def test_positivity_fails_before_contaminating_a_series(mctx):
    from birthdeath import extinction_sum

    with pytest.raises(NonPositiveRateError) as exc_info:
        extinction_sum(expr_model("n - 5", "1", mctx), mctx)
    assert exc_info.value.index == 1  # first queried index already invalid


def test_custom_callable_model(mctx):
    m = RateModel(lambda n: mctx.real(2), lambda n: mctx.real(n * n), label="quadratic death")
    assert float(m.death(4)) == 16.0
    assert "quadratic" in repr(m)


def test_rate_function_must_return_real(mctx):
    m = RateModel(lambda n: 1.0, lambda n: mctx.one())
    with pytest.raises(TypeError):
        m.birth(1)


def test_rates_of_one_context_do_not_mix_into_another(mctx):
    ctx30, ctx70 = make_context("extended", 30), make_context("extended", 70)
    with pytest.raises(ContextMismatchError):
        omega_stable(expr_model("1", "n", ctx30), 3, ctx70)
    with pytest.raises(ContextMismatchError):
        omega_stable(constant_model(mctx.real(1), mctx.real(2)), 3, ctx30)
    # a model read under one context is bound to it
    m = expr_model("1", "n", ctx30)
    omega_stable(m, 3, ctx30)
    with pytest.raises(ContextMismatchError):
        omega_stable(m, 3, ctx70)


def test_a_state_is_evaluated_once_and_only_when_read(mctx):
    evaluated = []

    def death(n):
        evaluated.append(n)
        return mctx.real(n)

    model = RateModel(lambda n: mctx.one(), death)
    assert float(pi_product(model, 5, mctx)) == 24.0
    assert evaluated == [1, 2, 3, 4]
    assert model.death(4) is model.death(4)
    omega_stable(model, 3, mctx)
    assert len(evaluated) == len(set(evaluated))
