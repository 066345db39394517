"""Tiny arithmetic expression language for forcing terms.

Grammar (recursive descent):

    expr   := term    (('+' | '-') term)*
    term   := unary   (('*' | '/') unary)*
    unary  := '-' unary | atom
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Names are the coordinates ``x``, ``y``, ``z`` (``z`` only on 3-d meshes),
the constants ``pi`` and ``e``, and the functions ``sin``, ``cos``, ``exp``.
Expressions are evaluated vectorized over all mesh vertices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/()]))"
)

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": np.float64(np.pi), "e": np.float64(np.e)}


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise UsageError(f"unexpected character {rest[0]!r} in expression")
        if m.lastgroup == "num":
            tokens.append(("num", np.float64(m.group("num"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise UsageError(f"expected {op!r} in expression")

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise UsageError(f"trailing input after expression: {self.peek()[1]!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            node = (op, node, self.unary())
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.unary())
        return self.atom()

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            if self.peek() == ("op", "("):
                if val not in _FUNCTIONS:
                    raise UsageError(f"unknown function {val!r}")
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return ("call", val, arg)
            return ("var", val)
        if (kind, val) == ("op", "("):
            node = self.expr()
            self.expect_op(")")
            return node
        raise UsageError(f"unexpected token {val!r} in expression")


def _evaluate(node, env):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        name = node[1]
        if name in env:
            return env[name]
        if name in _CONSTANTS:
            return _CONSTANTS[name]
        raise UsageError(f"unknown variable {name!r} for this mesh")
    if op == "neg":
        return -_evaluate(node[1], env)
    if op == "call":
        return _FUNCTIONS[node[1]](_evaluate(node[2], env))
    a = _evaluate(node[1], env)
    b = _evaluate(node[2], env)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / b


@dataclass(frozen=True)
class Expression:
    """Compiled forcing expression, evaluated at vertex coordinates."""

    source: str
    _ast: tuple

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        env = {"x": points[:, 0], "y": points[:, 1]}
        if points.shape[1] == 3:
            env["z"] = points[:, 2]
        # Numbers are np.float64, so 1/0 and exp(1000) give inf instead of
        # raising or warning; the finiteness check below reports them.
        with np.errstate(all="ignore"):
            out = _evaluate(self._ast, env)
        out = np.broadcast_to(np.asarray(out, dtype=np.float64), (points.shape[0],))
        if not np.isfinite(out).all():
            raise UsageError(
                f"expression {self.source!r} is not finite at every mesh vertex"
            )
        return np.array(out)


def compile_expression(text: str) -> Expression:
    """Parse a forcing expression; raises UsageError on malformed input."""
    if not text.strip():
        raise UsageError("empty expression")
    ast = _Parser(_tokenize(text)).parse()
    return Expression(text, ast)
