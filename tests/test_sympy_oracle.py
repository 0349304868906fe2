"""Cross-checks against sympy as an independent oracle.

sympy is used by these tests only and is not a dependency of the package;
the module is skipped when it is not installed.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from hyperforms.classical import sylvester_resultant  # noqa: E402
from hyperforms.hyperdet import binary_form_disc, det_rows  # noqa: E402
from hyperforms.parser import parse_poly  # noqa: E402
from hyperforms.poly import MultiPoly  # noqa: E402
from hyperforms.scalars import Cyclotomic, cyclotomic_polynomial, zeta  # noqa: E402

from shared import XY  # noqa: E402

X = sympy.Symbol("x")


def _random_coeffs(rng, degree):
    # a nonzero leading coefficient keeps the dehomogenised polynomial at full degree
    cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(degree + 1)]
    cs[0] = cs[0] or Fraction(1)
    return cs


def _form(cs):
    d = len(cs) - 1
    return MultiPoly(XY, {(d - i, i): c for i, c in enumerate(cs)})


def _sympy_poly(cs):
    d = len(cs) - 1
    return sum(sympy.Rational(c.numerator, c.denominator) * X ** (d - i)
               for i, c in enumerate(cs))


def _as_fraction(value):
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6, 7, 8])
def test_disc_matches_sympy_discriminant(degree):
    rng = random.Random(300 + degree)
    for _ in range(20):
        cs = _random_coeffs(rng, degree)
        want = sympy.discriminant(_sympy_poly(cs), X)
        assert binary_form_disc(_form(cs)).as_scalar() == _as_fraction(want), cs


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_generic_disc_matches_sympy_discriminant(degree):
    names = [f"c{i}" for i in range(degree + 1)]
    text = " + ".join(f"{c}*x^{degree - i}*y^{i}" for i, c in enumerate(names))
    got = binary_form_disc(parse_poly(text, tuple(names) + XY))
    symbols = sympy.symbols(names)
    generic = sum(s * X ** (degree - i) for i, s in enumerate(symbols))
    want = sympy.expand(sympy.discriminant(generic, X))
    local = dict(zip(names, symbols))
    assert sympy.expand(sympy.sympify(str(got), locals=local) - want) == 0


def test_resultant_matches_sympy_resultant():
    rng = random.Random(401)
    # thirty pairs of random degrees up to 4, then equal degrees up to 6
    for degrees in [None] * 30 + [(n, n) for n in range(1, 7) for _ in range(3)]:
        m, n = degrees or (rng.randint(1, 4), rng.randint(1, 4))
        a, b = _random_coeffs(rng, m), _random_coeffs(rng, n)
        # sympy 1.14 flips the sign when the first polynomial has the lower
        # degree and mn is odd (resultant(x, x^3 + 1) is -1, the Sylvester
        # determinant 1), so pass the higher degree first and use
        # Res(f, g) = (-1)^(mn) Res(g, f)
        if m >= n:
            want = sympy.resultant(_sympy_poly(a), _sympy_poly(b), X)
        else:
            want = (-1) ** (m * n) * sympy.resultant(_sympy_poly(b), _sympy_poly(a), X)
        assert sylvester_resultant(_form(a), _form(b)).as_scalar() == _as_fraction(want), (a, b)


def test_det_rows_matches_sympy_det():
    rng = random.Random(402)
    for n in (4, 5, 6):
        vals = [[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)]
        got = det_rows([[MultiPoly.constant(v) for v in row] for row in vals])
        want = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                             for row in vals]).det()
        assert got.as_scalar() == _as_fraction(want)


def _ascending(expr):
    """Coefficients of a sympy polynomial in X, constant first, as Fractions."""
    return [_as_fraction(c) for c in reversed(sympy.Poly(expr, X).all_coeffs())]


def test_cyclotomic_polynomial_matches_sympy():
    for m in range(1, 65):
        got = cyclotomic_polynomial(m)
        assert all(type(c) is int for c in got), m
        assert list(got) == _ascending(sympy.cyclotomic_poly(m, X)), m


@pytest.mark.parametrize("m", [3, 5, 8, 12, 24, 30, 60])
def test_cyclotomic_inverse_matches_sympy_invert(m):
    rng = random.Random(500 + m)
    phi = sum(c * X ** e for e, c in enumerate(cyclotomic_polynomial(m)))
    deg = len(cyclotomic_polynomial(m)) - 1
    draws = [lambda: rng.randint(-9, 9), lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))]
    for draw in draws * 4:
        coeffs = [draw() for _ in range(deg)]
        coeffs[rng.randrange(1, deg)] = draw() or 1  # not a rational
        x = sum((c * zeta(m) ** e for e, c in enumerate(coeffs)), Fraction(0))
        assert isinstance(x, Cyclotomic)
        a = sum(sympy.Rational(c.numerator, c.denominator) * X ** e for e, c in enumerate(coeffs))
        want = _ascending(sympy.invert(a, phi, X))
        got = x.inverse()
        assert list(got.coeffs) == want + [0] * (deg - len(want)), (m, coeffs)
