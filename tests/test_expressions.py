"""The forcing-expression mini language."""

import warnings

import numpy as np
import pytest

from fraclap.errors import UsageError
from fraclap.expressions import compile_expression


def pts2(*rows):
    return np.array(rows, dtype=float)


def test_coordinates_and_sin():
    e = compile_expression("sin(x+y)")
    p = pts2([0.0, 0.0], [1.0, 2.0], [-0.5, 0.25])
    np.testing.assert_allclose(e.evaluate(p), np.sin(p[:, 0] + p[:, 1]))


def test_literal_zero_broadcasts():
    e = compile_expression("0")
    np.testing.assert_array_equal(e.evaluate(pts2([1, 2], [3, 4])), [0.0, 0.0])


def test_precedence_and_parentheses():
    p = pts2([2.0, 0.0])
    assert compile_expression("1+2*3").evaluate(p)[0] == 7.0
    assert compile_expression("(1+2)*3").evaluate(p)[0] == 9.0
    assert compile_expression("2*x-1/4").evaluate(p)[0] == pytest.approx(3.75)


def test_unary_minus():
    p = pts2([3.0, 5.0])
    assert compile_expression("-x").evaluate(p)[0] == -3.0
    assert compile_expression("--x").evaluate(p)[0] == 3.0
    assert compile_expression("2--3").evaluate(p)[0] == 5.0


def test_constants_and_functions():
    p = pts2([0.0, 0.0])
    assert compile_expression("cos(pi)").evaluate(p)[0] == pytest.approx(-1.0)
    assert compile_expression("exp(1)").evaluate(p)[0] == pytest.approx(np.e)
    assert compile_expression("e").evaluate(p)[0] == pytest.approx(np.e)


def test_nested_calls():
    p = pts2([0.3, 0.1])
    got = compile_expression("sin(cos(x)*exp(y))").evaluate(p)
    np.testing.assert_allclose(got, np.sin(np.cos(0.3) * np.exp(0.1)))


def test_scientific_literals():
    p = pts2([0.0, 0.0])
    assert compile_expression("1.5e2").evaluate(p)[0] == 150.0
    assert compile_expression(".25").evaluate(p)[0] == 0.25


def test_z_available_in_three_dimensions():
    e = compile_expression("z*2")
    p3 = np.array([[0.0, 0.0, 1.5], [0.0, 0.0, -1.0]])
    np.testing.assert_array_equal(e.evaluate(p3), [3.0, -2.0])


def test_z_rejected_on_planar_mesh():
    e = compile_expression("z")
    with pytest.raises(UsageError):
        e.evaluate(pts2([0.0, 0.0]))


@pytest.mark.parametrize(
    "text",
    ["", "1+", "sin x", "foo(x)", "x$", "(x", "1 2", "sin()", "*x",
     # Python syntax outside the language
     "+x", "2**3", "1_000", "0x10", "1j", "True", "sin(x=1)", "x#c", "\uff58",
     "(1,2)", "x<y", "not x", "sin(x,y)", "sin(*x)", "(sin)(x)"],
)
def test_malformed_expressions(text):
    with pytest.raises(UsageError):
        compile_expression(text).evaluate(pts2([1.0, 1.0]))


@pytest.mark.parametrize("text, expected", [
    ("007", lambda x, y: np.float64(7)),
    ("01.5", lambda x, y: np.float64(1.5)),
    (" x", lambda x, y: x),
    ("\tsin (x)", lambda x, y: np.sin(x)),
    ("1\n+2", lambda x, y: np.float64(1) + np.float64(2)),
    ("sin\n(x)", lambda x, y: np.sin(x)),
    pytest.param("(" * 150 + "x" + ")" * 150, lambda x, y: x, id="150-parentheses"),
    pytest.param("-" * 500 + "x", lambda x, y: x, id="500-unary-minus"),
])
def test_accepted_outside_python_syntax_is_bit_exact(text, expected):
    p = pts2([0.3, -0.7], [1.0, 2.0])
    got = compile_expression(text).evaluate(p)
    want = np.broadcast_to(expected(p[:, 0], p[:, 1]), got.shape)
    assert got.tobytes() == np.asarray(want, dtype=np.float64).tobytes()


def test_division_by_zero_detected():
    with pytest.raises(UsageError):
        compile_expression("1/x").evaluate(pts2([0.0, 1.0]))


@pytest.mark.parametrize("text", ["1/0", "-1/0", "0/0", "exp(1000)", "x/0", "1/(x-x)"])
def test_non_finite_values_are_usage_errors_without_warnings(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match="not finite"):
            compile_expression(text).evaluate(pts2([0.5, 1.0], [1.0, 0.0]))


def test_constant_arithmetic_matches_python_floats():
    out = compile_expression("1/3 + 2*pi - e").evaluate(pts2([0.0, 0.0], [1.0, 1.0]))
    np.testing.assert_array_equal(out, [1 / 3 + 2 * np.pi - np.e] * 2)
