import operator
import random

import pytest

from birthdeath import (
    ExprEvalError,
    ExprSyntaxError,
    arithmetic,
    eval_expr,
    make_context,
    parse,
    pretty,
)
from birthdeath.rate_expr import Binary, Call, Number, Unary, Variable, compile_expr


def test_single_variable():
    assert parse("n") == Variable("n")


def test_precedence_forces_tree():
    assert parse("1 + 2*n") == Binary("+", Number("1"), Binary("*", Number("2"), Variable("n")))


def test_power_right_associative():
    ctx = make_context("machine")
    tree = parse("2^3^2")
    assert tree == Binary("^", Number("2"), Binary("^", Number("3"), Number("2")))
    for n in (0, 1, 17):
        assert float(eval_expr(tree, n, ctx)) == 512.0


def test_power_binds_tighter_than_unary_minus():
    ctx = make_context("machine")
    assert float(eval_expr(parse("-2^2"), 0, ctx)) == -4.0
    assert float(eval_expr(parse("(-2)^2"), 0, ctx)) == 4.0
    assert float(eval_expr(parse("2^-3"), 0, ctx)) == 0.125


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError) as exc_info:
        parse("m + 1")
    assert exc_info.value.offset == 0
    assert "unknown identifier" in str(exc_info.value)


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError) as exc_info:
        parse("2n")
    assert exc_info.value.offset == 1


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as exc_info:
        parse("1 + $")
    assert exc_info.value.offset == 4
    with pytest.raises(ExprSyntaxError) as exc_info:
        parse("(1 + 2")
    assert exc_info.value.offset == 6


def test_flat_chain_depth_is_capped():
    ctx = make_context("machine")
    for op, value in (("+", 100.0), ("*", 1.0)):
        assert float(eval_expr(parse(op.join(["1"] * 100)), 0, ctx)) == value
        with pytest.raises(ExprSyntaxError, match="deeper than 100"):
            parse(op.join(["1"] * 101))


def test_function_arity_checked():
    with pytest.raises(ExprSyntaxError):
        parse("min(1)")
    with pytest.raises(ExprSyntaxError):
        parse("exp(1, 2)")
    with pytest.raises(ExprSyntaxError):
        parse("foo(1)")
    assert isinstance(parse("min(n, 3)"), Call)


def test_eval_identity_and_constant():
    ctx = make_context("machine")
    assert float(eval_expr(parse("n"), 7, ctx)) == 7.0
    assert float(eval_expr(parse("1"), 42, ctx)) == 1.0


def test_eval_identity_exact_to_1000():
    ctx = make_context("machine")
    e20 = make_context("extended", 20)
    tree = parse("n")
    for n in range(1, 1001):
        assert float(eval_expr(tree, n, ctx)) == n
    for n in (1, 999, 1000):
        assert eval_expr(tree, n, e20) == e20.real(n)


def test_division_by_zero_reports_node():
    ctx = make_context("machine")
    tree = parse("1/(n-3)")
    assert float(eval_expr(tree, 4, ctx)) == 1.0
    with pytest.raises(ExprEvalError) as exc_info:
        eval_expr(tree, 3, ctx)
    assert "division by zero" in str(exc_info.value)
    assert exc_info.value.offset == 1


def test_domain_errors():
    ctx = make_context("machine")
    with pytest.raises(ExprEvalError):
        eval_expr(parse("log(n)"), 0, ctx)
    with pytest.raises(ExprEvalError):
        eval_expr(parse("sqrt(n - 5)"), 1, ctx)
    with pytest.raises(ExprEvalError):
        eval_expr(parse("(n - 2)^0.5"), 1, ctx)
    with pytest.raises(ExprEvalError) as exc_info:
        eval_expr(parse("1e999"), 1, ctx)  # a literal beyond binary64
    assert exc_info.value.offset == 0


def test_eval_functions():
    ctx = make_context("machine")
    assert float(eval_expr(parse("min(n, 3)"), 7, ctx)) == 3.0
    assert float(eval_expr(parse("max(n, 3)"), 7, ctx)) == 7.0
    assert float(eval_expr(parse("exp(0)"), 1, ctx)) == 1.0
    assert float(eval_expr(parse("log(exp(1))"), 1, ctx)) == 1.0
    assert float(eval_expr(parse("sqrt(n)"), 9, ctx)) == 3.0


def test_eval_is_pure():
    ctx = make_context("extended", 33)
    tree = parse("exp(1/n) + n^0.5")
    a = eval_expr(tree, 7, ctx)
    b = eval_expr(tree, 7, ctx)
    assert a == b and a.literal() == b.literal()


def test_eval_rejects_bad_state_index():
    tree = parse("n")
    ctx = make_context("machine")
    with pytest.raises(ValueError):
        eval_expr(tree, -1, ctx)
    with pytest.raises(ValueError):
        eval_expr(tree, 1.5, ctx)


def test_literals_preserved_until_eval():
    tree = parse("2.50 + 1e-3")
    assert tree == Binary("+", Number("2.50"), Number("1e-3"))
    m = make_context("machine")
    assert float(eval_expr(tree, 0, m)) == 2.501
    e40 = make_context("extended", 40)
    assert eval_expr(tree, 0, e40).literal() == "2.501"


ROUND_TRIP_CORPUS = [
    "n",
    "1 + 2*n",
    "2^3^2",
    "-n^2",
    "-(n + 1)",
    "(1 + n)*(2 - n)",
    "1/(n-3)",
    "min(n, 3) + max(1, n)",
    "exp(-n)*sqrt(n + 1)",
    "2^-3",
    "--n",
    "(n + 1)/(n*n + 2)",
    "0.5*n + 1e-3",
    "(-2)^n",
]


@pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
def test_pretty_round_trip_corpus(src):
    tree = parse(src)
    assert parse(pretty(tree)) == tree


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Number(str(rng.randint(0, 99))), Number("0.5"), Variable("n")])
    kind = rng.randrange(4)
    if kind == 0:
        return Unary("-", _random_tree(rng, depth - 1))
    if kind == 1:
        op = rng.choice(["+", "-", "*", "/", "^"])
        return Binary(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if kind == 2:
        return Call(rng.choice(["exp", "log", "sqrt"]), (_random_tree(rng, depth - 1),))
    return Call(rng.choice(["min", "max"]),
                (_random_tree(rng, depth - 1), _random_tree(rng, depth - 1)))


def test_pretty_round_trip_random_trees():
    rng = random.Random(1702)
    for _ in range(300):
        tree = _random_tree(rng, 4)
        assert parse(pretty(tree)) == tree


# -- the compiled evaluator against a tree walk over Real operations ---------

_REAL_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                   "/": operator.truediv, "^": operator.pow}
_REAL_FUNCTIONS = {"exp": arithmetic.exp, "log": arithmetic.log, "sqrt": arithmetic.sqrt,
                   "min": min, "max": max}


def _walk(node, n, ctx):
    """Reference evaluation: Real operations, each failure named at its node."""
    if isinstance(node, Variable):
        return ctx.real(n)
    if isinstance(node, Unary):
        return -_walk(node.operand, n, ctx)
    try:
        if isinstance(node, Number):
            return ctx.real(node.literal)
        if isinstance(node, Binary):
            return _REAL_OPERATORS[node.op](_walk(node.left, n, ctx), _walk(node.right, n, ctx))
        return _REAL_FUNCTIONS[node.func](*[_walk(a, n, ctx) for a in node.args])
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        where = f"{node.func}: " if isinstance(node, Call) else ""
        raise ExprEvalError(f"{where}{exc}", node.pos) from exc


_LITERALS = ("0", "1", "2", "3", "0.5", "17", "2.5e-3", "1e-400", "1e999", "1e300", "4.75")


def _grammar_tree(rng, depth):
    """A random tree over the whole grammar, at most ``depth`` levels below the root."""
    if depth == 0 or rng.random() < 0.25:
        return Variable("n") if rng.random() < 0.4 else Number(rng.choice(_LITERALS))
    kind = rng.randrange(5)
    if kind == 0:
        return Unary("-", _grammar_tree(rng, depth - 1))
    if kind in (1, 2):
        return Binary(rng.choice("+-*/^"), _grammar_tree(rng, depth - 1),
                      _grammar_tree(rng, depth - 1))
    if kind == 3:
        return Call(rng.choice(("exp", "log", "sqrt")), (_grammar_tree(rng, depth - 1),))
    return Call(rng.choice(("min", "max")),
                (_grammar_tree(rng, depth - 1), _grammar_tree(rng, depth - 1)))


def _outcome(evaluate):
    try:
        return "value", evaluate().literal()
    except ExprEvalError as exc:
        return "error", str(exc), exc.offset


def test_compiled_evaluator_matches_a_real_tree_walk():
    rng = random.Random(20261019)
    contexts = (make_context("machine"), make_context("extended", 30),
                make_context("extended", 70))
    seen = {"value": 0, "error": 0}
    messages = set()
    for _ in range(300):
        # parsed from text, so every node carries its source offset
        tree = parse(pretty(_grammar_tree(rng, 6)))
        for ctx in contexts:
            compiled = compile_expr(tree, ctx)
            for n in (1, 2, 17, 1000):
                want = _outcome(lambda: _walk(tree, n, ctx))
                got = _outcome(lambda: arithmetic.Real(ctx, compiled(n)))
                assert got == want, (pretty(tree), n, ctx)
                seen[want[0]] += 1
                if want[0] == "error":
                    messages.add(want[1].split(": ", 1)[1])
    assert min(seen.values()) > 500, seen
    assert len(messages) >= 6, messages
