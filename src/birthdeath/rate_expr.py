"""A small arithmetic expression language over the state index ``n``.

Used to specify per-state transition rates on the command line, e.g.
``--lambda "1" --mu "n"`` or ``--mu "0.5*n + 2"``.

Grammar (whitespace insignificant)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative, binds tightest
    atom    := NUMBER | 'n' | func '(' expr (',' expr)* ')' | '(' expr ')'
    NUMBER  := digits ['.' digits] [('e'|'E') ['+'|'-'] digits]

The only variable is ``n``.  Functions: ``exp``, ``log``, ``sqrt`` (one
argument), ``min``, ``max`` (two arguments).  There is no implicit
multiplication: ``2n`` is a syntax error, write ``2*n``.

Number literals are kept as text, so one parsed tree serves every
precision.  :func:`compile_expr` turns a tree, once per context, into one
function from the state index to a raw context value (``float`` or
``Decimal``), built from the context's raw operations; a literal is read
into the context then, and a failure it causes is raised at evaluation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Union

from .arithmetic import Real, RealContext
from .errors import ExprEvalError, ExprSyntaxError

__all__ = [
    "RateExpr", "Number", "Variable", "Unary", "Binary", "Call",
    "parse", "compile_expr", "eval_expr", "pretty",
]

# function name -> arity; each is the RealContext raw operation of that
# name, except min and max, which compare raw values exactly as they are
_FUNCTIONS = {"exp": 1, "log": 1, "sqrt": 1, "min": 2, "max": 2}
_COMPARISONS = {"min": min, "max": max}
# binary operator -> name of the RealContext raw operation
_OPERATORS = {"+": "add", "-": "sub", "*": "mul", "/": "div", "^": "power"}
# what the raw operations raise; an evaluation reports it at the failing node
_EVAL_ERRORS = (ValueError, OverflowError, ZeroDivisionError)

_VARIABLE = "n"

# Every recursive cycle of the grammar (parentheses, function arguments,
# unary minus, exponents) passes through ``unary``; nesting it deeper than
# this is refused as a syntax error before the interpreter's recursion
# limit turns it into a crash.  Flat chains such as ``1+1+...+1`` are built
# in a loop but evaluate and print recursively, so the depth of the built
# tree is capped at the same level.
_MAX_DEPTH = 100


@dataclass(frozen=True)
class Number:
    literal: str
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Variable:
    name: str
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "RateExpr"
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Binary:
    op: str
    left: "RateExpr"
    right: "RateExpr"
    pos: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    pos: int = field(compare=False, default=0)


RateExpr = Union[Number, Variable, Unary, Binary, Call]


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), i))
        i = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            shown = value if value else "end of input"
            raise ExprSyntaxError(f"expected {op!r}, found {shown!r}", pos)
        return self.advance()

    def parse(self) -> RateExpr:
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {value!r}", pos)
        return node

    def expr(self) -> RateExpr:
        return self.chain("+-", self.term)

    def term(self) -> RateExpr:
        return self.chain("*/", self.unary)

    def chain(self, ops: str, operand) -> RateExpr:
        """``operand (op operand)*`` for ``op`` in ``ops``, left-associative."""
        node = operand()
        while True:
            kind, value, pos = self.peek()
            if kind != "op" or value not in ops:
                return node
            self.advance()
            node = Binary(value, node, operand(), pos)

    def unary(self) -> RateExpr:
        kind, value, pos = self.peek()
        if self.depth >= _MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {_MAX_DEPTH} levels", pos)
        self.depth += 1
        try:
            if kind == "op" and value == "-":
                self.advance()
                return Unary("-", self.unary(), pos)
            return self.power()
        finally:
            self.depth -= 1

    def power(self) -> RateExpr:
        node = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            # exponent parses at unary level: 2^-3 works, 2^3^2 is right-assoc
            return Binary("^", node, self.unary(), pos)
        return node

    def atom(self) -> RateExpr:
        kind, value, pos = self.advance()
        if kind == "number":
            return Number(value, pos)
        if kind == "ident":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                return self.call(value, pos)
            if value != _VARIABLE:
                raise ExprSyntaxError(f"unknown identifier {value!r}", pos)
            return Variable(value, pos)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        shown = value if value else "end of input"
        raise ExprSyntaxError(f"unexpected {shown!r}", pos)

    def call(self, func: str, pos: int) -> RateExpr:
        if func not in _FUNCTIONS:
            raise ExprSyntaxError(f"unknown function {func!r}", pos)
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == ",":
                self.advance()
                args.append(self.expr())
            else:
                break
        self.expect_op(")")
        arity = _FUNCTIONS[func]
        if len(args) != arity:
            raise ExprSyntaxError(
                f"{func} expects {arity} argument(s), got {len(args)}", pos
            )
        return Call(func, tuple(args), pos)


def parse(text: str) -> RateExpr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ExprSyntaxError` (with byte offset) on malformed input,
    unknown identifiers, wrong function arity, or a tree deeper than
    ``_MAX_DEPTH`` nodes.
    """
    tree = _Parser(text).parse()
    _check_depth(tree)
    return tree


def _check_depth(tree: RateExpr) -> None:
    stack = [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {_MAX_DEPTH} levels", node.pos)
        if isinstance(node, Unary):
            stack.append((node.operand, depth + 1))
        elif isinstance(node, Binary):
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
        elif isinstance(node, Call):
            stack.extend((arg, depth + 1) for arg in node.args)


def compile_expr(expr: RateExpr, ctx: RealContext) -> Callable[[int], object]:
    """``expr`` under ``ctx`` as one function from a state index to a raw value.

    The function returns a ``float`` or ``Decimal`` of ``ctx`` and is pure:
    one n gives bit-identical results.  Division by zero, log of a
    non-positive value, sqrt of a negative value, and overflow raise
    :class:`ExprEvalError` pointing at the offending node, worded as the
    arithmetic layer words them.  A literal the context cannot hold fails
    the same way, when the function is called.
    """
    if isinstance(expr, Variable):
        return ctx.from_int
    if isinstance(expr, Unary):
        operand, neg = compile_expr(expr.operand, ctx), ctx.neg
        return lambda n: neg(operand(n))
    if isinstance(expr, Number):
        try:
            value = ctx.real(expr.literal).raw
        except _EVAL_ERRORS as exc:
            return _failing(expr, exc)
        return lambda n: value
    if isinstance(expr, Binary):
        apply, args = getattr(ctx, _OPERATORS[expr.op]), (expr.left, expr.right)
    elif isinstance(expr, Call):
        apply, args = _COMPARISONS.get(expr.func) or getattr(ctx, expr.func), expr.args
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    left = compile_expr(args[0], ctx)
    right = compile_expr(args[1], ctx) if len(args) == 2 else None

    def node(n):
        # a child's failure arrives as an ExprEvalError and passes through
        try:
            return apply(left(n)) if right is None else apply(left(n), right(n))
        except _EVAL_ERRORS as exc:
            raise _eval_error(expr, exc) from exc
    return node


def _eval_error(node: RateExpr, exc: Exception) -> ExprEvalError:
    where = f"{node.func}: " if isinstance(node, Call) else ""
    return ExprEvalError(f"{where}{exc}", node.pos)


def _failing(node: RateExpr, exc: Exception):
    def fail(n):
        raise _eval_error(node, exc) from exc
    return fail


def eval_expr(expr: RateExpr, n: int, ctx: RealContext) -> Real:
    """Evaluate ``expr`` at state index ``n`` under ``ctx``: compile, then call.

    Pure: identical (expr, n, ctx) triples give bit-identical results.
    Errors are those of :func:`compile_expr`.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"state index must be a non-negative integer, got {n!r}")
    return Real(ctx, compile_expr(expr, ctx)(n))


# precedence levels for the printer; atoms sit above every operator
_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def pretty(expr: RateExpr) -> str:
    """Render a tree back to source text that reparses to an identical tree."""
    text, _ = _render(expr)
    return text


def _render(node: RateExpr):
    if isinstance(node, Number):
        return node.literal, _PREC_ATOM
    if isinstance(node, Variable):
        return node.name, _PREC_ATOM
    if isinstance(node, Call):
        args = ", ".join(_render(a)[0] for a in node.args)
        return f"{node.func}({args})", _PREC_ATOM
    if isinstance(node, Unary):
        text, prec = _render(node.operand)
        if prec < _PREC_UNARY:
            text = f"({text})"
        return f"-{text}", _PREC_UNARY
    if isinstance(node, Binary):
        lt, lp = _render(node.left)
        rt, rp = _render(node.right)
        if node.op == "^":
            # right-associative and binds tighter than unary minus
            if lp <= _PREC_POW:
                lt = f"({lt})"
            if rp < _PREC_UNARY:
                rt = f"({rt})"
            return f"{lt}^{rt}", _PREC_POW
        # '+ -' and '* /' are left-associative; only '+ -' is spaced
        prec, sep = (_PREC_ADD, f" {node.op} ") if node.op in "+-" else (_PREC_MUL, node.op)
        if lp < prec:
            lt = f"({lt})"
        if rp <= prec:
            rt = f"({rt})"
        return f"{lt}{sep}{rt}", prec
    raise TypeError(f"not an expression node: {node!r}")
