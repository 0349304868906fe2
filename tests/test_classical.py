import hashlib
import random
from fractions import Fraction

import pytest

from hyperforms.classical import (
    apolar_quartic,
    hankel_matrix,
    hankel_quartic,
    sylvester_resultant,
    wronskian3,
)
from hyperforms.errors import DomainError
from hyperforms.hyperdet import binary_form_disc, det_rows
from hyperforms.parser import parse_poly
from hyperforms.poly import MultiPoly
from hyperforms.scalars import zeta

from shared import P, XY, random_form
from substitute import subs
from sylvester import sylvester_rows


# -- resultants -----------------------------------------------------------------


def test_resultant_linear_pair():
    # oracle: 2x2 Sylvester determinant [[1,-1],[1,1]]
    assert sylvester_resultant(P("x - y"), P("x + y")) == 2


def test_resultant_coprime_powers():
    # oracle: 4x4 Sylvester determinant is the identity matrix
    assert sylvester_resultant(P("x^2"), P("y^2")) == 1


def test_resultant_of_form_with_itself_vanishes():
    f = P("x^2 - 3*x*y + y^2")
    assert sylvester_resultant(f, f).is_zero()


def test_resultant_multiplicative():
    rng = random.Random(31)
    for _ in range(10):
        f, g = random_form(rng, 1), random_form(rng, 2)
        h = random_form(rng, 2)
        lhs = sylvester_resultant(f * g, h)
        rhs = sylvester_resultant(f, h) * sylvester_resultant(g, h)
        assert lhs == rhs


def test_resultant_shared_linear_factor_vanishes():
    rng = random.Random(37)
    for _ in range(10):
        lin = random_form(rng, 1)
        f = lin * random_form(rng, 1)
        g = lin * random_form(rng, 2)
        assert sylvester_resultant(f, g).is_zero()


def test_resultant_against_root_evaluation():
    # Res(x - alpha*y, g) = g(alpha, 1) for monic linear first argument
    rng = random.Random(39)
    for degree in (1, 2, 3, 4):
        for _ in range(5):
            alpha = Fraction(rng.randint(-9, 9))
            lin = MultiPoly(XY, {(1, 0): 1, (0, 1): -alpha})
            g = random_form(rng, degree)
            want = subs(g, {"x": alpha, "y": 1}).as_scalar()
            assert sylvester_resultant(lin, g).as_scalar() == want


def test_resultant_bihomogeneous_degrees():
    fvars = ("a0", "a1", "a2", "b0", "b1", "x", "y")
    f = parse_poly("a0*x^2 + a1*x*y + a2*y^2", fvars)
    g = parse_poly("b0*x + b1*y", fvars)
    r = sylvester_resultant(f, g)
    assert r.homogeneous_degree_in(("a0", "a1", "a2")) == 1
    assert r.homogeneous_degree_in(("b0", "b1")) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_equal_degree_resultant_matches_sylvester_oracle(n):
    # equal degrees take the n x n Bezout matrix; the 2n x 2n Sylvester
    # determinant is the oracle.  Integer, rational, Q(zeta6) and symbolic
    # coefficients, forms divisible by x or by y, and pairs with a common factor
    rng = random.Random(500 + n)
    st = ("s", "t") + XY
    s, t, x, y = (parse_poly(v, st) for v in st)
    kinds = [lambda: rng.randint(-9, 9),
             lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
             lambda: rng.randint(-3, 3) + rng.randint(-3, 3) * zeta(6),
             lambda: rng.randint(-3, 3) * s + rng.randint(-3, 3) * t]

    def form(degree, coeff):
        while True:
            f = sum((x ** (degree - i) * y ** i * coeff() for i in range(degree + 1)),
                    MultiPoly.zero(st))
            if f.homogeneous_degree_in(XY) == degree:
                return f

    for k, coeff in enumerate(kinds):
        f, g, lin = form(n - 1, coeff), form(n - 1, coeff), form(1, coeff)
        # one random pair, and one of four special pairs, a different one for
        # each n, so that over n = 1..6 every kind meets all four
        which = (k + n) % 4
        special = [(x * f, form(n, coeff)), (form(n, coeff), y * g), (x * f, y * g),
                   (lin * f, lin * g)][which]
        for a, b in ((form(n, coeff), form(n, coeff)), special):
            want = det_rows(sylvester_rows(a.binary_coefficients(XY),
                                            b.binary_coefficients(XY), n, n))
            assert sylvester_resultant(a, b) == want, (str(a), str(b))
        if which == 3:
            assert sylvester_resultant(*special).is_zero()


def _resultant_outputs(seed=16):
    """Printed results of a seeded sweep: ``sylvester_resultant`` over degrees
    1 <= m, n <= 6 and ``binary_form_disc`` of degrees 5 to 8, with integer,
    rational, zeta6 and symbolic coefficients (symbolic only where m + n <= 8),
    f and g on different variable tuples, some leading coefficients zero."""
    rng = random.Random(seed)

    def symbolic(names):
        return lambda: MultiPoly(names, {(1, 0): rng.randint(-2, 2), (0, 1): rng.randint(-2, 2),
                                         (0, 0): rng.randint(-2, 2)})

    kinds = {
        "int": (lambda: rng.randint(-5, 5),) * 2,
        "rational": (lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),) * 2,
        "zeta6": (lambda: rng.randint(-2, 2) + rng.randint(-2, 2) * zeta(6),) * 2,
        "symbolic": (symbolic(("a", "b")), symbolic(("c", "a"))),
    }
    fvars, gvars = ("x", "a", "y", "b"), ("c", "y", "a", "x")

    def form(coeff, vs, degree):
        ix, iy = vs.index("x"), vs.index("y")
        while True:
            cs = [coeff() for _ in range(degree + 1)]
            for end in (0, degree):  # a zero first or last coefficient, one time in four each
                if rng.random() < 0.25:
                    cs[end] = 0
            f = MultiPoly.zero(vs)
            for i, c in enumerate(cs):
                e = [0] * len(vs)
                e[ix], e[iy] = degree - i, i
                f = f + MultiPoly(vs, {tuple(e): 1}) * c
            if not f.is_zero():
                return f

    for name, (fc, gc) in kinds.items():
        for m in range(1, 7):
            for n in range(1, 7):
                if name != "symbolic" or m + n <= 8:
                    f, g = form(fc, fvars, m), form(gc, gvars, n)
                    yield f"{name} resultant {m},{n}: {sylvester_resultant(f, g, XY)}"
        for d in range(5, 9 if name != "symbolic" else 6):
            yield f"{name} disc {d}: {binary_form_disc(form(fc, fvars, d), XY, degree=d)}"


def test_resultant_outputs_are_pinned():
    # any change to the printed results of the sweep changes this digest
    text = "\n".join(_resultant_outputs())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b1379997125c03f1e1a7e6a43043d689d0ca8f80e28056d21225afe6a24e663b")


def test_resultant_zero_input_rejected():
    with pytest.raises(DomainError):
        sylvester_resultant(MultiPoly.zero(XY), P("x"))


def test_resultant_degree_is_bounded():
    for f, g in (("x^33 + y^33", "x - y"), ("x - y", "x^33 + y^33")):
        with pytest.raises(DomainError, match="limited to degree 32"):
            sylvester_resultant(P(f), P(g))
    assert sylvester_resultant(P("x^32 - y^32"), P("x")) == -1


# -- quartic invariants -------------------------------------------------------------


def test_hankel_power_sum_vanishes():
    # oracle: (1/8) det [[24,0,0],[0,0,0],[0,0,24]] = 0
    assert hankel_quartic(P("x^4 + y^4")).is_zero()


def test_hankel_value():
    # oracle: (1/8) det [[24,0,4],[0,4,0],[4,0,24]] = 2240/8
    assert hankel_quartic(P("x^4 + x^2*y^2 + y^4")) == 280


def test_hankel_zero_form():
    assert hankel_quartic(MultiPoly(XY, {(4, 0): 0})).is_zero()


def test_hankel_matrix_entries():
    cv = ("c40", "c31", "c22", "c13", "c04", "x", "y")
    f = parse_poly("c40*x^4 + c31*x^3*y + c22*x^2*y^2 + c13*x*y^3 + c04*y^4", cv)
    m = hankel_matrix(f)
    assert m[(0, 0)] == parse_poly("24*c40", cv)
    assert m[(0, 1)] == m[(1, 0)] == parse_poly("6*c31", cv)
    assert m[(1, 1)] == m[(0, 2)] == parse_poly("4*c22", cv)
    assert m[(2, 2)] == parse_poly("24*c04", cv)


def test_apolar_values():
    assert apolar_quartic(P("x^4 + y^4")) == 12
    assert apolar_quartic(P("x^4 + x^2*y^2 + y^4")) == 13
    assert apolar_quartic(P("x^2*y^2")) == 1


def test_apolar_wrong_degree():
    with pytest.raises(DomainError):
        apolar_quartic(P("x^3"))


def test_quartic_invariants_refuse_other_degrees():
    for text in ("x^3 + y^3", "x*y^2", "x^5 - y^5"):
        for invariant in (hankel_quartic, hankel_matrix, apolar_quartic):
            with pytest.raises(DomainError, match="degree 4, got degree"):
                invariant(P(text))


@pytest.mark.parametrize("xy", [("x",), ("x", "y", "z")])
def test_binary_invariants_need_exactly_two_form_variables(xy):
    # x^4 + z^4 is homogeneous in (x, y, z), so only the arity rule refuses it
    f = P("x^4 + z^4", ("x", "y", "z"))
    calls = (lambda: f.binary_coefficients(xy), lambda: binary_form_disc(f, xy),
             lambda: sylvester_resultant(f, f, xy),
             lambda: hankel_quartic(f, xy), lambda: apolar_quartic(f, xy),
             lambda: wronskian3(f, f, f, xy))
    for call in calls:
        with pytest.raises(DomainError, match=f"exactly two form variables, got {len(xy)}$"):
            call()


def _gl_weight(invariant):
    """Symbolic oracle: the det(g) exponent of a relative invariant."""
    gv = ("a", "b", "c", "d")
    cv = ("c40", "c31", "c22", "c13", "c04")
    allv = gv + cv + XY
    f = parse_poly("c40*x^4 + c31*x^3*y + c22*x^2*y^2 + c13*x*y^3 + c04*y^4", allv)
    x, y = parse_poly("x", allv), parse_poly("y", allv)
    a, b, c, d = (parse_poly(v, allv) for v in gv)
    moved = subs(f, {"x": a * x + b * y, "y": c * x + d * y})
    quot = invariant(moved).exact_div(invariant(f))
    assert quot is not None
    det = a * d - b * c
    w = 0
    while not quot.total_degree() == 0:
        nxt = quot.exact_div(det)
        assert nxt is not None, "quotient is not a power of det(g)"
        quot = nxt
        w += 1
    assert quot == 1
    return w


def test_hankel_and_apolar_relative_invariance_weights():
    # weights determined once symbolically, then pinned
    assert _gl_weight(hankel_quartic) == 6
    assert _gl_weight(apolar_quartic) == 4


def test_hankel_and_apolar_invariance_numeric():
    rng = random.Random(41)
    x, y = P("x"), P("y")
    for _ in range(10):
        f = random_form(rng, 4)
        a, b, c, d = (Fraction(rng.randint(-5, 5)) for _ in range(4))
        det = a * d - b * c
        if not det:
            continue
        moved = subs(f, {"x": a * x + b * y, "y": c * x + d * y})
        assert hankel_quartic(moved) == det ** 6 * hankel_quartic(f)
        assert apolar_quartic(moved) == det ** 4 * apolar_quartic(f)


# -- wronskian -------------------------------------------------------------------------


def test_wronskian_basis_quadratics():
    # oracle: rows (2,2x,x^2),(0,1,x),(0,0,1), determinant 2
    assert wronskian3(P("x^2"), P("x*y"), P("y^2")) == 2


def test_wronskian_repeated_row():
    f, g = P("x^2 + y^2"), P("x*y")
    assert wronskian3(f, f, g).is_zero()


def test_wronskian_linear_dependence():
    f1, f2 = P("x^2 - y^2"), P("x*y + y^2")
    assert wronskian3(f1, f2, 2 * f1 + 3 * f2).is_zero()


def test_wronskian_degree_mismatch():
    with pytest.raises(DomainError):
        wronskian3(P("x^2"), P("x^3"), P("y^2"))


def _coeff_rank(forms, degree):
    """Row-reduction oracle for linear dependence of binary forms."""
    rows = [[Fraction(f.terms.get((degree - i, i), 0)) for i in range(degree + 1)]
            for f in forms]
    rank = 0
    cols = degree + 1
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c] / rows[r][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def test_wronskian_vanishes_iff_rank_deficient():
    rng = random.Random(43)
    for degree in (2, 4):
        for _ in range(15):
            forms = [random_form(rng, degree) for _ in range(3)]
            if rng.random() < 0.5:
                a, b = rng.randint(-5, 5), rng.randint(-5, 5)
                f3 = a * forms[0] + b * forms[1]
                forms[2] = f3 if not f3.is_zero() else forms[0]
            w = wronskian3(*forms)
            rank = _coeff_rank(forms, degree)
            assert w.is_zero() == (rank < 3)
