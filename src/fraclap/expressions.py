"""Tiny arithmetic expression language for forcing terms.

Numbers are decimal digits with an optional fraction and exponent (``007``,
``1.``, ``.25``, ``1.5e-3``; leading zeros allowed; no sign, ``_``, hex or
imaginary literal), read by ``np.float64``.  Names are ASCII identifiers:
the coordinates ``x``, ``y``, ``z`` (``z`` only on 3-d meshes) and the
constants ``pi`` and ``e``; any other name fails at evaluation.  Operators
are ``+ - * /`` (left associative, ``*`` and ``/`` first), unary minus (no
unary plus, no ``**``), parentheses, and one-argument calls ``sin(a)``,
``cos(a)``, ``exp(a)``.  Whitespace, line breaks included, may separate any
two tokens.  Expressions are evaluated in float64 over all mesh vertices.

Checking: the lexical gate ``_TOKEN`` must consume the whole text; the
tokens, each number replaced by its token index, are joined by spaces and
parsed by ``ast.parse``; a whitelist over ``ast.walk`` refuses every node
outside the language.  Nesting too deep for the parser (200 levels of
parentheses) or for the evaluator is a usage error.
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/()]))"
)

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": np.float64(np.pi), "e": np.float64(np.e)}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}
_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.USub, ast.Name, ast.Load, *_BINARY)
_TOO_DEEP = "expression is nested too deeply"


def _tokenize(text: str):
    """The tokens joined by spaces, each number written as its token index,
    and the number values by token index."""
    unread = _TOKEN.sub("", text).strip()
    if unread:
        raise UsageError(f"unexpected character {unread[0]!r} in expression")
    matches = list(_TOKEN.finditer(text))
    numbers = {i: np.float64(m["num"]) for i, m in enumerate(matches) if m["num"]}
    tokens = (str(i) if i in numbers else m[m.lastgroup] for i, m in enumerate(matches))
    return " ".join(tokens), numbers


def _evaluate(node: ast.expr, env):
    if isinstance(node, ast.BinOp):
        return _BINARY[type(node.op)](_evaluate(node.left, env), _evaluate(node.right, env))
    if isinstance(node, ast.UnaryOp):
        return -_evaluate(node.operand, env)
    if isinstance(node, ast.Call):
        return _FUNCTIONS[node.func.id](_evaluate(node.args[0], env))
    if isinstance(node, ast.Constant):
        return node.value
    if node.id in env:
        return env[node.id]
    raise UsageError(f"unknown variable {node.id!r} for this mesh")


@dataclass(frozen=True)
class Expression:
    """Compiled forcing expression, evaluated at vertex coordinates."""

    source: str
    _tree: ast.expr = field(repr=False, compare=False)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        env = {**_CONSTANTS, **dict(zip("xyz", points.T))}
        # Numbers are np.float64, so 1/0 and exp(1000) give inf instead of
        # raising or warning; the finiteness check below reports them.
        with np.errstate(all="ignore"):
            try:
                out = _evaluate(self._tree, env)
            except RecursionError:
                raise UsageError(_TOO_DEEP) from None
        out = np.broadcast_to(np.asarray(out, dtype=np.float64), (points.shape[0],))
        if not np.isfinite(out).all():
            raise UsageError(
                f"expression {self.source!r} is not finite at every mesh vertex"
            )
        return np.array(out)


def compile_expression(text: str) -> Expression:
    """Parse a forcing expression; raises UsageError on malformed input."""
    source, numbers = _tokenize(text)
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError:
        raise UsageError(f"malformed expression {text!r}") from None
    except (RecursionError, MemoryError):
        raise UsageError(_TOO_DEEP) from None
    # The whitelist; each number's token index is replaced by its value.
    for node in ast.walk(tree):
        # type() is exact: True, False and None reach the refusal below
        if isinstance(node, ast.Constant) and type(node.value) is int:
            node.value = numbers[node.value]
        elif isinstance(node, ast.Call):
            func = node.func
            # ast drops parentheses: the name in (sin)(x) starts after the call
            if not (isinstance(func, ast.Name) and func.col_offset == node.col_offset
                    and len(node.args) == 1 and not node.keywords):
                raise UsageError(f"malformed expression {text!r}")
            if func.id not in _FUNCTIONS:
                raise UsageError(f"unknown function {func.id!r}")
        elif not isinstance(node, _NODES):
            raise UsageError(f"unsupported syntax in expression {text!r}")
    return Expression(text, tree.body)
