"""No float anywhere, and no integral ``Fraction`` in a polynomial or a
cyclotomic number.

Every value the library returns is exact, and so is every polynomial and
every cyclotomic number it builds on the way: a fixture checks each
``MultiPoly`` and ``Cyclotomic`` as it is constructed, whether through
``MultiPoly(...)``, ``parse_poly`` or the arithmetic's internal ``_raw``.
Every integral coefficient of a polynomial is stored as ``int``, including
the results of sums, products and derivatives.
"""

import importlib
import math
import random
from fractions import Fraction

import pytest

from hyperforms.gramm import GrammValue, gramm_form, gramm_tensor, project_k, skew_gramm
from hyperforms.hyperdet import binary_form_disc, det_rows, hyperdet, ternary_quadratic_disc
from hyperforms.parser import parse_poly
from hyperforms.poly import MultiPoly
from hyperforms.scalars import Cyclotomic, exact_quotient, scalar_pow, zeta
from hyperforms.tensor import Tensor
from hyperforms.verify import SUITES, IdentityRecord, VerifyReport, run_suite

from shared import XY


def check_exact(value):
    """Fail on a float, or on any value that is not one of the exact kinds."""
    if isinstance(value, float):
        pytest.fail(f"float reached: {value!r}")
    if value is None or isinstance(value, (int, Fraction, str)):
        return
    if isinstance(value, MultiPoly):
        for c in value.terms.values():
            assert type(c) in (int, Fraction, Cyclotomic), repr(c)
            check_exact(c)
        assert not _integral_fractions(value), value.terms
    elif isinstance(value, Cyclotomic):
        assert all(type(c) is int or type(c) is Fraction and c.denominator != 1
                   for c in value.coeffs), repr(value)
    elif isinstance(value, Tensor):
        check_exact(value.entries)
    elif isinstance(value, GrammValue):
        check_exact([value.base, value.exponent])
    elif isinstance(value, VerifyReport):
        check_exact(value.identities)
    elif isinstance(value, IdentityRecord):
        assert value.constant is None or type(value.constant) is Fraction, repr(value)
    elif isinstance(value, (list, tuple)):
        for v in value:
            check_exact(v)
    else:
        pytest.fail(f"unexpected value type {type(value).__name__}: {value!r}")


def _integral_fractions(p: MultiPoly) -> list:
    return [c for c in p.terms.values() if type(c) is Fraction and c.denominator == 1]


@pytest.fixture(autouse=True)
def built_values_are_exact(monkeypatch):
    raw, poly_init, init = MultiPoly._raw.__func__, MultiPoly.__init__, Cyclotomic.__init__

    def checked_raw(cls, variables, terms):
        p = raw(cls, variables, terms)
        check_exact(p)
        return p

    def checked_poly_init(self, variables, terms):
        poly_init(self, variables, terms)
        check_exact(self)

    def checked_init(self, order, coeffs):
        init(self, order, coeffs)
        check_exact(self)

    monkeypatch.setattr(MultiPoly, "_raw", classmethod(checked_raw))
    monkeypatch.setattr(MultiPoly, "__init__", checked_poly_init)
    monkeypatch.setattr(Cyclotomic, "__init__", checked_init)


@pytest.mark.parametrize("name", list(SUITES))
def test_verify_suites_stay_exact(name):
    for seed in (1, 2, 3):
        report = run_suite(name, seed, trials=2)
        check_exact(report)
        assert report.passed


def _entries(rng, n, with_zeta):
    a = MultiPoly.variable("a")
    kinds = [lambda: rng.randint(-5, 5),
             lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
             lambda: rng.randint(-2, 2) * a + rng.randint(-2, 2)]
    if with_zeta:
        kinds.append(lambda: rng.randint(-2, 2) * zeta(6) + rng.randint(-2, 2))
    return [rng.choice(kinds)() for _ in range(n)]


@pytest.mark.parametrize("shape", [(3, 3, 3), (2, 2, 2, 2)])
def test_project_k_stays_exact(shape):
    rng = random.Random(len(shape))
    # zeta6 entries only where eps = zeta(6): 2x2x2x2 projects with zeta(24)
    t = Tensor(shape, _entries(rng, math.prod(shape), len(shape) == 3))
    fact = 6 if len(shape) == 3 else 24
    parts = [project_k(t, k) for k in range(fact)]
    check_exact(parts)
    assert sum(parts[1:], parts[0]) == t


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6, 7, 8])
def test_binary_form_disc_stays_exact(degree):
    rng = random.Random(degree)
    z = zeta(6)
    for coeff in (lambda: rng.randint(-9, 9),
                  lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                  lambda: rng.randint(-3, 3) + rng.randint(-3, 3) * z):
        f = MultiPoly(XY, {(degree - i, i): coeff() for i in range(degree + 1)})
        disc = binary_form_disc(f, XY, degree=degree)
        check_exact([disc, disc.as_scalar()])


@pytest.mark.parametrize("n", range(7))
def test_numeric_det_rows_stays_exact(n):
    # constant entries run the elimination on scalars, the cofactors at n == 3 and
    # Bareiss otherwise; a zero leading entry forces a row swap
    rng = random.Random(n)
    z = zeta(6)
    for coeff in (lambda: rng.randint(-9, 9),
                  lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                  lambda: rng.randint(-3, 3) + rng.randint(-3, 3) * z,
                  lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * z + rng.randint(-3, 3)):
        for zero_pivot in (False, True):
            rows = [[coeff() for _ in range(n)] for _ in range(n)]
            if zero_pivot and n:
                rows[0][0] = 0
            det = det_rows([[MultiPoly.constant(c) for c in row] for row in rows])
            check_exact([det, det.as_scalar()])


def test_hyperdet_and_gramm_forms_stay_exact():
    rng = random.Random(5)
    for shape in [(3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2)]:
        t = Tensor(shape, _entries(rng, math.prod(shape), False))
        check_exact(hyperdet(t))

    def vec(n):
        return [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]

    form2 = Tensor((3, 3), _entries(rng, 9, False))
    form3 = Tensor((2, 2, 2), [rng.randint(-5, 5) for _ in range(8)])
    vectors2, vectors3 = [vec(3) for _ in range(3)], [vec(2) for _ in range(2)]
    check_exact([gramm_form(form2, vectors2), gramm_form(form3, vectors3)])
    check_exact([skew_gramm(form2, vectors2, k) for k in range(2)])
    check_exact([skew_gramm(form3, vectors3, k) for k in range(6)])


def test_slot_action_stores_integral_values_as_int():
    # gramm_tensor reads its vectors as Fractions; on a tensor of constants the
    # integral sums of their products are stored as int, as are those of apply_gl
    form = Tensor((2, 2, 2), [1, -2, 3, 0, 5, 2, -1, 4])
    vectors = [[Fraction(2), Fraction(-4)], [Fraction(6, 3), 1], [True, Fraction(1, 2)]]
    g = gramm_tensor(form, vectors[:2])
    halves = Tensor((2, 2), [2, 4, 6, 8]).apply_gl(0, [[Fraction(1, 2), 0], [Fraction(3, 2), 1]])
    check_exact([g, halves, gramm_tensor(form, vectors)])
    assert all(type(c) is int for t in (g, halves) for p in t.entries for c in p.terms.values())
    assert halves == Tensor((2, 2), [1, 2, 9, 14])


def test_ternary_hessian_doubles_half_integral_squares_to_int(monkeypatch):
    # H_ii = 2*c(u_i^2) on items: a square coefficient 1/2 gives the entry 1, an int
    module = importlib.import_module("hyperforms.hyperdet")
    seen, det = [], module._det
    monkeypatch.setattr(module, "_det", lambda m: seen.append([r[:] for r in m]) or det(m))
    uvw = ("u0", "u1", "u2")
    q = parse_poly("1/2*u0^2 + 3/2*a*u1^2 + 1/2*u1*u2 + 5/2*u2^2", ("a",) + uvw)
    disc = ternary_quadratic_disc(q, uvw)
    (rows,) = seen
    check_exact(rows)
    assert rows[0][0] == 1 and type(rows[0][0]) is int
    assert rows[1][1].terms == {(1,): 3} and type(rows[1][1].terms[(1,)]) is int
    assert rows[2][2] == 5 and type(rows[2][2]) is int and rows[1][2] == Fraction(1, 2)
    assert disc == parse_poly("15*a - 1/4", ("a",))
    halves = ternary_quadratic_disc(parse_poly("1/2*u0^2 + 1/2*u1^2 + 1/2*u2^2", uvw), uvw)
    check_exact([disc, halves])
    assert halves.terms == {(): 1}


def test_schlaefli_writes_int_coefficients_for_int_tensors(monkeypatch):
    # the list of 3 is a 2x2x2's quadratic det(A + tB), the list of 5 a 2x2x2x2's
    # quartic F(1, t), both written from the mixed determinants of 2x2 slices with
    # no division: on an int tensor every coefficient is an int
    module = importlib.import_module("hyperforms.hyperdet")
    seen, closed_form = [], module._closed_form_disc
    monkeypatch.setattr(module, "_closed_form_disc", lambda cs: seen.append(cs) or closed_form(cs))
    rng = random.Random(23)
    z = zeta(6)
    draws = {int: lambda: rng.randint(-9, 9),
             Fraction: lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
             Cyclotomic: lambda: rng.randint(-3, 3) + rng.randint(-3, 3) * z}
    for kind, draw in draws.items():
        for shape, lengths in (((2, 2, 2), [3]), ((2, 2, 2, 2), [5])):
            for _ in range(5):
                seen.clear()
                value = hyperdet(Tensor(shape, [draw() for _ in range(math.prod(shape))]))
                assert [len(cs) for cs in seen] == lengths
                check_exact([value] + [c for cs in seen for c in cs])
                if kind is int:
                    assert all(type(c) is int for cs in seen for c in cs), seen
                    assert all(type(c) is int for c in value.terms.values())


def test_cyclotomic_inverse_and_division_stay_exact():
    rng = random.Random(9)
    # rational draws take the inverse through its lcm of denominators
    draws = [lambda lo: rng.randint(lo, 4),
             lambda lo: Fraction(rng.randint(lo, 4), rng.randint(1, 6))]
    for m, draw in [(m, draw) for m in (3, 4, 5, 6, 8, 12, 24) for draw in draws]:
        z = zeta(m)
        for _ in range(5):
            x = sum((draw(-4) * z ** e for e in range(4)), Fraction(rng.randint(1, 4)))
            y = draw(1) * z + draw(-3)
            if not isinstance(x, Cyclotomic):  # the draw reduced to a rational
                continue
            check_exact([x.inverse(), x / y, y / x, x / 3, x / Fraction(2, 3), 5 / y,
                         exact_quotient(x, y), exact_quotient(7, y)])


def test_scalar_pow_stays_exact():
    # x**n by repeated multiplication, inverted for n < 0; a bool exponent counts as int
    bases = [3, -2, Fraction(2, 3), Fraction(-5, 7)] + [zeta(m) for m in (3, 4, 5, 6, 12)]
    for x in bases + [zeta(6) + 2, Fraction(1, 2) * zeta(8) - 1]:
        for n in range(-4, 5):
            want = math.prod([x] * abs(n), start=Fraction(1))
            got = scalar_pow(x, n)
            check_exact(got)
            assert got == (Fraction(1) / want if n < 0 else want), (x, n)
        assert scalar_pow(x, True) == x and scalar_pow(x, False) == 1


def test_cyclotomic_reduction_stores_integral_entries_as_int():
    # x = 1/2 + 3/2 * zeta5^4 and zeta5^4 = -(1 + zeta5 + zeta5^2 + zeta5^3), so reducing
    # modulo Phi_5 sums 1/2 - 3/2 into an integral constant entry
    x = (Fraction(1, 2) * zeta(5) ** 3 + Fraction(3, 2) * zeta(5) ** 2) * zeta(5) ** 2
    assert x.coeffs == (-1, Fraction(-3, 2), Fraction(-3, 2), Fraction(-3, 2))
    assert type(x.coeffs[0]) is int
    check_exact(x)


def test_exact_quotient_types():
    assert type(exact_quotient(6, 3)) is int and exact_quotient(6, 3) == 2
    assert exact_quotient(-7, 2) == Fraction(-7, 2)
    assert type(exact_quotient(Fraction(6), 3)) is int
    assert type(exact_quotient(Fraction(1, 2), Fraction(1, 4))) is int
    assert type(exact_quotient(3, Fraction(2))) is Fraction
    with pytest.raises(ZeroDivisionError):
        exact_quotient(1, 0)


def test_division_by_a_bool_or_an_int_subclass_stays_exact():
    # bool and any other int subclass are integers: the quotient is a plain int or a
    # Fraction, never the float that true division of two ints gives
    class I(int):
        pass

    for a, b, want in ((True, 2, Fraction(1, 2)), (6, True, 6), (I(6), I(3), 2),
                       (I(7), 2, Fraction(7, 2)), (False, I(5), 0)):
        q = exact_quotient(a, b)
        assert q == want and type(q) is type(want), (a, b, q)
    p = parse_poly("3*x + 1/2*y", XY)
    for one in (True, I(1)):
        assert (p / one).terms == p.terms
        assert [type(c) for c in (p / one).terms.values()] == [int, Fraction]
        z = zeta(6) / one
        assert z == zeta(6) and [type(c) for c in z.coeffs] == [int, int]
    assert (parse_poly("3*x", ("x",)) / I(2)).terms == {(1,): Fraction(3, 2)}
    check_exact([p / True, p / I(2), zeta(6) / True, zeta(6) / I(2)])


def test_integral_coefficients_are_stored_as_int():
    p = MultiPoly(XY, {(1, 0): Fraction(6, 3), (0, 1): True, (0, 0): Fraction(1, 2)})
    assert [type(c) for c in p.terms.values()] == [int, int, Fraction]
    assert type(MultiPoly.constant(Fraction(4)).terms[()]) is int
    assert MultiPoly.variable("x").terms == {(1,): 1}
    for text in ("4/2*x + 3*y - 6/3", "zeta6^3*x + zeta6^6", "(1/2*x + 1/2)*(2*x + 2)",
                 "(zeta6 + 1)*(zeta6^5 + 1)*x", "1/2*x + 1/2*x - y"):
        p = parse_poly(text, XY)
        assert not _integral_fractions(p), (text, p.terms)
        check_exact(p)
    # a constant's value stays a Fraction, so ratios of values stay exact
    assert type(MultiPoly.constant(3).as_scalar()) is Fraction


def test_arithmetic_stores_integral_results_as_int():
    # each of these is x, reached through an integral Fraction sum or product
    x = ("x",)
    half_x, zeta_x = parse_poly("1/2*x", x), parse_poly("zeta6*x", x)
    half, three_halves = (MultiPoly.constant(Fraction(k, 2), x) for k in (1, 3))
    for p in (half_x * 2, 2 * half_x, half_x + half_x, half_x - parse_poly("-1/2*x", x),
              parse_poly("1/2*x^2", x).partial("x"),
              zeta_x * zeta(6) ** 5, zeta_x * parse_poly("zeta6^5", x),
              MultiPoly.dot(x, [half_x, half_x], [half, three_halves]),
              MultiPoly.dot(x, [zeta_x], [MultiPoly.constant(zeta(6) ** 5, x)])):
        assert p.terms == {(1,): 1} and type(p.terms[(1,)]) is int, p.terms
