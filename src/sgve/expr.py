"""Arithmetic expressions for payoff and transition formulas.

Grammar (highest precedence first)::

    atom   := NUMBER | IDENT | 'exp' '(' expr ')' | 'log' '(' expr ')' | '(' expr ')'
    power  := atom ['^' unary]          # right-associative
    unary  := '-' unary | power
    term   := unary (('*' | '/') unary)*
    expr   := term (('+' | '-') term)*

Identifiers must belong to the variable set declared at parse time; there is
no implicit multiplication, so ``xy`` is always a single identifier.  Trees
are immutable and :func:`evaluate` is the one evaluator, a pure structural
recursion over numpy values, safe to run concurrently on shared expressions.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import EvalDomainError, ExprSyntaxError, UnknownVariableError

__all__ = [
    "Expr", "Num", "Var", "Neg", "Call", "BinOp",
    "parse", "evaluate", "to_string",
]

_RESERVED = ("exp", "log")
# Deepest tree that parse accepts.  evaluate and to_string recurse once per
# level, and the CLI reaches them about twenty frames below Python's default
# limit of 1000; a 500-term sum is 500 levels deep.
MAX_DEPTH = 600


class _Node:
    """Structural equality, hash and repr that walk the tree with a stack:
    the dataclass methods recurse once per level, and a 500-term sum, which
    :func:`parse` accepts, is 500 levels deep."""

    def _preorder(self) -> list[_Node]:
        nodes, stack = [], [self]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(v for v in reversed(_values(node)) if isinstance(v, _Node))
        return nodes

    def _key(self) -> list:
        # each class fixes its number of subtrees, so the pre-order list of
        # (class, fields other than subtrees) pairs determines the tree
        return [(type(node),
                 tuple(v for v in _values(node) if not isinstance(v, _Node)))
                for node in self._preorder()]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(tuple(self._key()))

    def __repr__(self):
        done = []  # reprs of the finished subtrees, the latest on top
        for node in reversed(self._preorder()):
            parts = (f"{f.name}={done.pop() if isinstance(v, _Node) else repr(v)}"
                     for f, v in zip(fields(node), _values(node)))
            done.append(f"{type(node).__name__}({', '.join(parts)})")
        return done[0]


def _values(node: _Node) -> list:
    return [getattr(node, f.name) for f in fields(node)]


@dataclass(frozen=True, eq=False, repr=False)
class Num(_Node):
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("expression constants must be finite")


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Node):
    arg: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Call(_Node):
    func: str  # 'exp' or 'log'
    arg: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(_Node):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Var, Neg, Call, BinOp]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}",
                                  len(text) - len(stripped))
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, names: frozenset[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.names = names
        self.i = 0
        self.nesting = 0  # active unary() calls

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {val!r}", off)
        if _height(e) > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", 0)
        return e

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, val, off = self.peek()
        # every nested construct (parenthesis, call, minus, exponent)
        # re-enters here, at most five parser frames deeper
        self.nesting += 1
        if 5 * self.nesting > MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply", off)
        if kind == "op" and val == "-":
            self.advance()
            node = Neg(self.unary())
        else:
            node = self.power()
        self.nesting -= 1
        return node

    def power(self) -> Expr:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            # exponent may carry a sign and further '^' (right-associative)
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, val, off = self.advance()
        if kind == "num":
            if not math.isfinite(float(val)):
                raise ExprSyntaxError(f"number {val} overflows a double", off)
            return Num(float(val))
        if kind == "ident":
            if val in _RESERVED:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            if val not in self.names:
                raise UnknownVariableError(val, off)
            return Var(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", off)
        raise ExprSyntaxError(f"unexpected {val!r}", off)


def parse(text: str, names: Iterable[str]) -> Expr:
    """Parse ``text`` over the declared variable set ``names``.

    Raises :class:`ExprSyntaxError` with the byte offset of the first bad
    token, or :class:`UnknownVariableError` for undeclared identifiers.
    Trees deeper than ``MAX_DEPTH`` levels are syntax errors (at offset 0),
    and so is nesting that would need more parser frames than that.
    """
    nameset = frozenset(names)
    bad = nameset.intersection(_RESERVED)
    if bad:
        raise ValueError(f"variable names {sorted(bad)} are reserved")
    return _Parser(text, nameset).parse()


def _height(e: Expr) -> int:
    """Levels of the tree, counted without recursion: a left-deep sum is as
    deep as it is long."""
    height, level = 0, [e]
    while level:
        height += 1
        level = [child for node in level for child in (
            (node.left, node.right) if isinstance(node, BinOp)
            else (node.arg,) if isinstance(node, (Neg, Call)) else ())]
    return height


def evaluate(e: Expr, bindings: Mapping[str, float | np.ndarray]
             ) -> float | np.ndarray:
    """IEEE double evaluation by structural recursion, elementwise over arrays.

    Bindings are floats or numpy arrays that broadcast together.  Returns a
    float when every binding is a scalar, else an array of the broadcast
    shape; constants are evaluated at that shape too, so an expression that
    ignores some variables still yields one value per point.  Deterministic:
    equal bindings give bit-identical results.

    One domain rule: :class:`EvalDomainError` is raised as soon as any
    subexpression is nonfinite anywhere in its array.  That covers division
    by zero, log of a nonpositive value, invalid powers and overflow, and
    never lets an infinite intermediate be inverted back into range.  The
    message names the subexpression and the bindings at its first nonfinite
    entry.
    """
    arrays = [np.asarray(value, dtype=float) for value in bindings.values()]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    # scalars run as one-element arrays: numpy picks its loops by stride,
    # and 0-d operands would take other loops than a grid does
    grid = shape or (1,)
    views = {name: np.broadcast_to(a, grid) for name, a in zip(bindings, arrays)}
    with np.errstate(all="ignore"):
        out = _evaluate(e, views, grid)
    return float(out[0]) if shape == () else np.ascontiguousarray(out)


_UFUNCS = {"exp": np.exp, "log": np.log, "+": np.add, "-": np.subtract,
           "*": np.multiply, "/": np.divide, "^": np.power}


def _evaluate(e: Expr, views: Mapping[str, np.ndarray], shape) -> np.ndarray:
    """Recursion behind :func:`evaluate`; ``views`` holds the bindings
    broadcast to the result ``shape``."""
    if isinstance(e, Num):
        # a stride-0 exponent would send np.power down its x*x fast path,
        # which differs from the general loop in the last bit; full-shape
        # constants keep every grid on the general loop
        out = np.full(shape, e.value)
    elif isinstance(e, Var):
        try:
            out = views[e.name]
        except KeyError:
            raise UnknownVariableError(e.name) from None
    elif isinstance(e, Neg):
        out = np.negative(_evaluate(e.arg, views, shape))
    elif isinstance(e, Call):
        out = _UFUNCS[e.func](_evaluate(e.arg, views, shape))
    else:
        out = _UFUNCS[e.op](_evaluate(e.left, views, shape),
                            _evaluate(e.right, views, shape))
    # math.isfinite is ~20 times cheaper than numpy on the scalar path
    if not (math.isfinite(out.item()) if out.size == 1 else np.isfinite(out).all()):
        idx = np.unravel_index(np.argmax(~np.isfinite(out)), shape)
        at = ", ".join(f"{name}={float(v[idx])!r}" for name, v in views.items())
        raise EvalDomainError(f"nonfinite value of {to_string(e)}"
                              + (f" at {at}" if at else ""))
    return out


_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, BinOp):
        if e.op in "+-":
            return _LEVEL_ADD
        if e.op in "*/":
            return _LEVEL_MUL
        return _LEVEL_POW
    if isinstance(e, Neg):
        return _LEVEL_NEG
    return _LEVEL_ATOM


def _wrap(s: str, need: bool) -> str:
    return f"({s})" if need else s


def to_string(e: Expr) -> str:
    """Render with minimal parentheses; reparsing yields an identical tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = to_string(e.arg)
        return "-" + _wrap(inner, _level(e.arg) < _LEVEL_NEG)
    if isinstance(e, Call):
        return f"{e.func}({to_string(e.arg)})"
    lv = _level(e)
    ls, rs = to_string(e.left), to_string(e.right)
    if e.op == "^":
        # left operand must bind tighter than '^'; right side is parsed as a
        # unary expression, so only +/- and */ chains there need parentheses
        return _wrap(ls, _level(e.left) <= _LEVEL_POW) + "^" + \
            _wrap(rs, _level(e.right) < _LEVEL_NEG)
    left_need = _level(e.left) < lv
    right_need = _level(e.right) <= lv  # left-associative
    return f"{_wrap(ls, left_need)} {e.op} {_wrap(rs, right_need)}"
