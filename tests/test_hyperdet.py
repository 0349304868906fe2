import hashlib
import importlib
import itertools
import math
import random
from fractions import Fraction

import pytest

import hyperforms
from hyperforms.errors import DomainError, UnsupportedFormatError
from hyperforms.gramm import gramm_form, project_k, skew_gramm
from hyperforms.hyperdet import (
    binary_form_disc,
    cayley_hyperdet_222,
    det_rows,
    det_square,
    hyperdet,
    hyperdet_degree,
    ternary_quadratic_disc,
)
from hyperforms.parser import parse_poly
from hyperforms.polarisation import hyperhessian, hyperresultant
from hyperforms.poly import MultiPoly
from hyperforms.scalars import Cyclotomic, zeta
from hyperforms.tensor import Tensor

from partials import derivative as iterated_derivative
from shared import P, XY, const_tensor, rand_tensor
from sylvester import sylvester_disc as _sylvester_disc


# -- format classification ----------------------------------------------------------


def test_classification():
    assert hyperdet_degree((3, 3)) == 3
    assert hyperdet_degree((2, 2, 2)) == 4
    assert hyperdet_degree((2, 3, 2)) == 6
    assert hyperdet_degree((3, 2, 2)) == 6
    assert hyperdet_degree((2, 2, 2, 2)) == 24


def test_degree_is_cached_per_shape():
    t = rand_tensor(random.Random(5), (2, 2, 2, 2))
    hyperdet(t)
    before = hyperdet_degree.cache_info()
    hyperdet(t)
    assert hyperdet_degree.cache_info().misses == before.misses
    with pytest.raises(UnsupportedFormatError):
        hyperdet_degree((3, 3, 3))  # refusals are not cached
    assert hyperdet_degree.cache_info().currsize == before.currsize


def test_public_api_resolves():
    for name in hyperforms.__all__:
        getattr(hyperforms, name)
    assert "hyperdet_degree" in hyperforms.__all__
    assert not any(hasattr(hyperforms, name) for name in ("classify_format", "Format"))


def test_nonexistent_raises_domain_error():
    with pytest.raises(DomainError, match="does not exist"):
        hyperdet(Tensor.zeros((4, 2)))


def test_unimplemented_raises_unsupported():
    with pytest.raises(UnsupportedFormatError, match="unsupported"):
        hyperdet(Tensor.zeros((3, 3, 3)))


@pytest.mark.parametrize("shape", [(k, k) for k in range(1, 7)] + [
    (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2)],
    ids=lambda shape: "x".join(map(str, shape)))
def test_degree_table_matches_homogeneity(shape):
    # hyperdet(2t) == 2^deg * hyperdet(t) certifies the tabled degree
    rng = random.Random(sum(shape) * 31 + len(shape))
    t = rand_tensor(rng, shape, bound=4)
    while hyperdet(t).is_zero():
        t = rand_tensor(rng, shape, bound=4)
    doubled = t.map_entries(lambda p: p * 2)
    assert hyperdet(doubled) == 2 ** hyperdet_degree(shape) * hyperdet(t)


@pytest.mark.parametrize("shape, error, text", [
    ((4, 2), DomainError, "does not exist for format 4x2"),
    ((2, 3), DomainError, "does not exist for format 2x3"),
    ((2,), DomainError, "does not exist for format 2"),
    ((7, 7), DomainError, "limited to 6x6"),
    ((3, 3, 3), UnsupportedFormatError, "format 3x3x3 unsupported"),
    ((1,), UnsupportedFormatError, "format 1 unsupported"),
    ((2, 2, 4), DomainError, "does not exist"),
    ((2, 2, 2, 2, 2), UnsupportedFormatError, "unsupported"),
    ((), DomainError, r"0-dimensional format \[\]"),
])
def test_degree_raises_as_hyperdet_does(shape, error, text):
    with pytest.raises(error, match=text):
        hyperdet_degree(shape)
    with pytest.raises(error, match=text):
        hyperdet(Tensor.zeros(shape))


# -- square determinants ---------------------------------------------------------------


def test_det_identity():
    assert det_square(const_tensor((2, 2), [1, 0, 0, 1])) == 1


def test_det_symbolic_matches_cofactor_oracle():
    x, y = P("x"), P("y")
    t = Tensor((2, 2), [x, y, y, x])
    # oracle: cofactor expansion by hand
    assert det_square(t) == x * x - y * y == P("x^2 - y^2")


def test_det_equal_rows_vanishes():
    t = Tensor((2, 2), [P("x"), P("y"), P("x"), P("y")])
    assert det_square(t).is_zero()


def test_det_multilinear_in_rows():
    rng = random.Random(3)
    for _ in range(5):
        rows = [[Fraction(rng.randint(-9, 9)) for _ in range(3)] for _ in range(3)]
        lam = Fraction(rng.randint(1, 5))
        t1 = const_tensor((3, 3), [c for row in rows for c in row])
        scaled = [list(rows[0]), list(rows[1]), [lam * c for c in rows[2]]]
        t2 = const_tensor((3, 3), [c for row in scaled for c in row])
        assert det_square(t2) == lam * det_square(t1)


def test_det_bareiss_matches_cofactor_for_4x4():
    # oracle: Laplace expansion along the first row, for every size up to 4;
    # a zero (0,0) entry forces the row swap
    rng = random.Random(11)

    def laplace(m):
        if len(m) == 1:
            return m[0][0]
        total = Fraction(0)
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = m[0][j] * laplace(minor)
            total += term if j % 2 == 0 else -term
        return total

    for n in range(1, 5):
        for zero_pivot in (False, True):
            vals = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
            if zero_pivot:
                vals[0][0] = Fraction(0)
            t = const_tensor((n, n), [c for row in vals for c in row])
            assert det_square(t).as_scalar() == laplace(vals), vals
    x, y, z = (P(v, ("x", "y", "z")) for v in "xyz")
    assert det_rows([[MultiPoly.zero(), x], [y, z]]) == -(x * y)


def test_numeric_matrices_and_forms_never_reach_polynomial_arithmetic(monkeypatch):
    # nor a pencil in fresh variables: the Schlaefli step runs on the values
    rng = random.Random(19)

    def form(degree):
        return MultiPoly(XY, {(degree - i, i): rng.randint(-9, 9) for i in range(degree + 1)})

    quartic, cubic = form(4), form(3)
    calls = [(det_square, rand_tensor(rng, (6, 6))), (binary_form_disc, quartic)]
    calls += [(hyperdet, rand_tensor(rng, shape)) for shape in
              ((2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2))]
    calls += [(lambda f: hyperhessian(f, (1, 1, 1), XY), cubic),
              (lambda f: hyperhessian(f, (1, 1, 1, 1), XY), quartic),
              (lambda fs: hyperresultant(fs, XY), [form(2), form(2)]),
              (lambda fs: hyperresultant(fs, XY), [form(2), form(2), form(2)]),
              (lambda fs: hyperresultant(fs, XY), [form(3), form(3)]),
              (lambda fs: hyperforms.sylvester_resultant(*fs), [quartic, form(4)])]
    vecs = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    calls += [(cayley_hyperdet_222, rand_tensor(rng, (2, 2, 2))),
              (lambda t: hyperdet(project_k(t, 2)), rand_tensor(rng, (2, 2, 2))),
              (lambda t: hyperdet(project_k(t, 12)), rand_tensor(rng, (2, 2, 2, 2))),
              (lambda t: gramm_form(t, vecs).base, rand_tensor(rng, (3, 3))),
              (lambda t: skew_gramm(t, vecs[:2], 1).base, rand_tensor(rng, (3, 3)))]
    expected = [fn(arg) for fn, arg in calls]
    assert not any(value.is_zero() for value in expected)

    def refuse(*args):
        raise AssertionError("polynomial arithmetic on a numeric input")

    for name in ("dot", "exact_div", "__mul__", "__rmul__", "__truediv__"):
        monkeypatch.setattr(MultiPoly, name, refuse)
    monkeypatch.setattr(Tensor, "contract_axis", refuse)
    assert [fn(arg) for fn, arg in calls] == expected


def test_numeric_results_keep_the_variables_of_the_polynomial_route():
    a, bc = MultiPoly.constant(2, ("a",)), MultiPoly.constant(3, ("b", "c"))
    for n in range(2, 7):  # triangular: the diagonal on ("a",), one entry below on ("b", "c")
        rows = [[a if i == j else MultiPoly.zero() for j in range(n)] for i in range(n)]
        rows[-1][0] = bc
        det = det_rows(rows)
        assert det.vars == ("a", "b", "c") and det == 2 ** n, (n, det)
    assert det_rows([[MultiPoly.zero(("a",)), bc], [MultiPoly.zero(), a]]).vars == ("a", "b", "c")
    for degree in (2, 3, 4, 5):
        f = MultiPoly(("c", "x", "y"), {(0, degree, 0): 1, (0, 0, degree): 1})
        assert binary_form_disc(f).vars == ("c",)


def test_det_rows_takes_items_as_tensors_do():
    # scalars stand for constant polynomials; only polynomials bring variables
    a = P("a", ("a",))
    cases = [[[1, 2], [3, 4]], [[Fraction(1, 2), 2], [3, Fraction(4, 3)]],
             [[zeta(6), 1], [2, zeta(6)]], [[True, False], [True, True]], [[a, 2], [3, 4]],
             [[MultiPoly.constant(2, ("b",)), 1], [Fraction(3), 4]]]
    for rows in cases:
        want = det_rows([[x if type(x) is MultiPoly else MultiPoly.constant(x) for x in row]
                         for row in rows])
        got = det_rows(rows)
        assert (got.vars, got.terms) == (want.vars, want.terms), rows
    assert det_rows([[1, 2], [3, 4]]) == -2 and det_rows([[1, 2], [3, 4]]).vars == ()
    got = det_rows([[a, 2], [3, 4]])
    assert got.vars == ("a",) and got == P("4*a - 6", ("a",))
    assert det_rows([]) == 1 and det_rows([]).vars == ()


def test_det_rejects_nonsquare_and_large():
    with pytest.raises(DomainError):
        det_square(Tensor.zeros((2, 3)))
    with pytest.raises(DomainError):
        det_square(Tensor.zeros((7, 7)))


# -- binary form discriminant -------------------------------------------------------------


def test_disc_quadratic():
    # oracle: Sylvester resultant of (2x, -2y) with the sign convention
    assert binary_form_disc(P("x^2 - y^2")) == 4


def test_disc_depressed_cubic():
    # matches -4p^3 - 27q^2 at p = 0, q = 1
    assert binary_form_disc(P("x^3 + y^3")) == -27


def test_disc_repeated_root_vanishes():
    assert binary_form_disc(P("(x - y)^2*(x + y)")).is_zero()


def test_disc_matches_classic_quadratic_formula():
    f = parse_poly("a*x^2 + b*x*y + c*y^2", ("a", "b", "c", "x", "y"))
    assert binary_form_disc(f) == parse_poly("b^2 - 4*a*c", ("a", "b", "c", "x", "y"))


def test_disc_random_repeated_roots_vanish():
    rng = random.Random(21)
    for _ in range(15):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if a == 0 and b == 0:
            continue
        lin = a * P("x") + b * P("y")
        rest = MultiPoly(XY, {(1, 0): rng.randint(-9, 9), (0, 1): rng.randint(-9, 9)})
        f = lin * lin * (rest if not rest.is_zero() else P("x"))
        assert binary_form_disc(f).is_zero()


def test_quartic_disc_matches_invariant_closed_form():
    # the Sylvester route against disc = (4 I^3 - J^2) / 27, with the
    # classical degree-2 and degree-3 invariants written out by hand
    rng = random.Random(47)
    for _ in range(15):
        a, b, c, d, e = (Fraction(rng.randint(-9, 9)) for _ in range(5))
        f = MultiPoly(XY, {(4, 0): a, (3, 1): b, (2, 2): c, (1, 3): d, (0, 4): e})
        if f.is_zero():
            continue
        inv2 = 12 * a * e - 3 * b * d + c * c
        inv3 = (72 * a * c * e + 9 * b * c * d
                - 27 * a * d * d - 27 * e * b * b - 2 * c ** 3)
        assert _sylvester_disc(f, XY, 4).as_scalar() == (4 * inv2 ** 3 - inv3 ** 2) / 27


def _random_binary_form(degree, coeff):
    return MultiPoly(XY, {(degree - i, i): coeff() for i in range(degree + 1)})


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6, 7, 8])
def test_closed_form_disc_matches_sylvester_oracle(degree):
    # numeric forms: integer, rational and Q(zeta6) coefficients, then forms
    # passed with their degree declared: leading coefficients specialised to
    # zero, and the zero form.  98 per degree for the closed forms, 15 for the
    # Bezout route, whose 2(d-1) x 2(d-1) Sylvester oracle is slow
    rng = random.Random(100 + degree)
    z = zeta(6)

    def integer():
        return rng.randint(-9, 9)

    closed = degree <= 4
    n_int, n_zeta, zero_runs = (35, 20, (1, 1, 1, 2, 2, 2)) if closed else (5, 1, (1, 2))
    coeffs = ([integer] * n_int
              + [lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))] * n_int
              + [lambda: rng.randint(-3, 3) + rng.randint(-3, 3) * z] * n_zeta)
    forms = [_random_binary_form(degree, c) for c in coeffs]
    for zeros in zero_runs + (degree, degree + 1):
        cs = [0] * zeros + [integer() for _ in range(degree + 1 - zeros)]
        forms.append(MultiPoly(XY, {(degree - i, i): c for i, c in enumerate(cs)}))
    assert len(forms) == (98 if closed else 15)
    assert any(any(isinstance(c, Cyclotomic) for c in f.terms.values()) for f in forms)
    for f in forms:
        assert binary_form_disc(f, XY, degree=degree) == _sylvester_disc(f, XY, degree), str(f)


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_closed_form_disc_matches_sylvester_oracle_symbolic(degree):
    # fewer mixed s, t forms for the Bezout route: at degree 6 the Sylvester
    # oracle takes about 0.5 s on one of them, 0.2 s on the generic form
    names = tuple(f"c{i}" for i in range(degree + 1))
    monomials = [f"x^{degree - i}*y^{i}" for i in range(degree + 1)]
    generic = " + ".join(f"{c}*{m}" for c, m in zip(names, monomials))
    rng = random.Random(200 + degree)
    mixed = [" + ".join(
        f"({rng.randint(-4, 4)}*s + {rng.randint(-4, 4)}/3*t + {rng.randint(-4, 4)})*{m}"
        for m in monomials) for _ in range({5: 1, 6: 0}.get(degree, 5))]
    st = ("s", "t") + XY
    forms = [parse_poly(generic, names + XY), parse_poly(generic, XY + names),
             parse_poly(f"zeta6*s*x^{degree} - t*x*y^{degree - 1} + y^{degree}", st)]
    forms += [parse_poly(text, st) for text in mixed]
    for f in forms:
        assert binary_form_disc(f, XY, degree=degree) == _sylvester_disc(f, XY, degree), str(f)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_disc_refuses_a_form_below_its_declared_degree(degree):
    # a nonzero form of lower degree is not a degenerate form of this degree:
    # its coefficient list would start with zeros and the discriminant read 0
    rng = random.Random(100 + degree)
    names = tuple(f"c{i}" for i in range(degree))
    generic = " + ".join(f"{c}*x^{degree - 1 - i}*y^{i}" for i, c in enumerate(names))
    forms = [_random_binary_form(degree - 1, lambda: rng.randint(1, 9)) for _ in range(2)]
    forms += [parse_poly(generic, names + XY), P(f"y^{degree - 1}")]
    for f in forms:
        for disc in (binary_form_disc, _sylvester_disc):
            with pytest.raises(DomainError, match="got degree"):
                disc(f, XY, degree)
    with pytest.raises(DomainError, match="degree 4, got degree 3"):
        binary_form_disc(P("x^3 + y^3"), XY, degree=4)
    assert binary_form_disc(P("x^3*y"), XY, degree=4).is_zero()  # a quartic with a double root
    assert binary_form_disc(MultiPoly.zero(XY), XY, degree=degree).is_zero()


def test_disc_degree_is_bounded():
    with pytest.raises(DomainError, match="limited to degree 32"):
        binary_form_disc(P("x^33 + y^33"))
    with pytest.raises(DomainError, match="limited to degree 32"):
        binary_form_disc(P("x^2 + y^2"), XY, degree=33)
    # disc(x^n + a) = (-1)^(n(n-1)/2) * n^n * a^(n-1), here n = 32, a = -1
    assert binary_form_disc(P("x^32 - y^32")) == -(32 ** 32)


def test_disc_degree_in_coefficients():
    # disc of a degree-d form has degree 2(d-1) in the coefficients
    cv3 = ("c30", "c21", "c12", "c03")
    cubic = parse_poly(
        "c30*x^3 + c21*x^2*y + c12*x*y^2 + c03*y^3", cv3 + XY)
    assert binary_form_disc(cubic).homogeneous_degree_in(cv3) == 4
    cv4 = ("c40", "c31", "c22", "c13", "c04")
    quartic = parse_poly(
        "c40*x^4 + c31*x^3*y + c22*x^2*y^2 + c13*x*y^3 + c04*y^4", cv4 + XY)
    assert binary_form_disc(quartic).homogeneous_degree_in(cv4) == 6


def test_disc_degree_and_homogeneity_errors():
    with pytest.raises(DomainError):
        binary_form_disc(P("x"))
    with pytest.raises(DomainError):
        binary_form_disc(P("x^2 + x"))


# -- ternary quadratic discriminant -----------------------------------------------------------


U3 = ("u0", "u1", "u2")


def test_ternary_diagonal():
    assert ternary_quadratic_disc(parse_poly("u0^2 + u1^2 + u2^2", U3), U3) == 8


def test_ternary_degenerate_conic():
    assert ternary_quadratic_disc(parse_poly("u0*u1", U3), U3).is_zero()


def test_ternary_mixed():
    assert ternary_quadratic_disc(parse_poly("u0^2 + u1*u2", U3), U3) == -2


def test_ternary_disc_matches_hessian_of_partials():
    # oracle: the 3x3 matrix of second partials, one variable at a time
    rng = random.Random(21)
    vs = ("a",) + U3 + ("b",)
    monomials = list(itertools.combinations_with_replacement(U3, 2))
    for _ in range(30):
        terms = []
        for u, w in monomials:
            c = rng.choice(["0", str(rng.randint(-9, 9)), f"{rng.randint(1, 5)}/2",
                            "a", f"({rng.randint(-3, 3)}*a - b)"])
            terms.append(f"({c})*{u}*{w}")
        q = parse_poly(" + ".join(terms), vs)
        hessian = [[iterated_derivative(q, (u, w), (1, 1)).drop_vars(U3) for w in U3] for u in U3]
        assert ternary_quadratic_disc(q, U3) == det_rows(hessian), q


def test_quadratic_disc_takes_the_hessian_in_the_variables_given():
    # two variables give the 2x2 Hessian determinant 4ac - b^2, not a silent zero
    uv = U3[:2]
    assert ternary_quadratic_disc(parse_poly("u0^2 + 3*u0*u1 + u1^2", uv), uv) == 4 - 9


def test_ternary_wrong_degree():
    with pytest.raises(DomainError):
        ternary_quadratic_disc(parse_poly("u0^3", U3), U3)


# -- hyperdeterminants ----------------------------------------------------------------------


def test_hyperdet_diagonal_222():
    vals = [0] * 8
    vals[0] = vals[7] = 1
    assert hyperdet(const_tensor((2, 2, 2), vals)) == 1


def test_hyperdet_all_ones_222():
    assert hyperdet(const_tensor((2, 2, 2), [1] * 8)).is_zero()


def test_schlaefli_matches_closed_form_on_100_random():
    rng = random.Random(0)
    for _ in range(100):
        t = rand_tensor(rng, (2, 2, 2))
        assert hyperdet(t) == cayley_hyperdet_222(t)


_SCHLAEFLI_FORMATS = [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2)]


def test_split_is_planned_only_for_supported_formats(monkeypatch):
    module = importlib.import_module("hyperforms.hyperdet")
    split, reached = module._split, []
    monkeypatch.setattr(module, "_split", lambda shape: reached.append(shape) or split(shape))
    rng = random.Random(37)
    for shape in [(k, k) for k in range(1, 7)] + _SCHLAEFLI_FORMATS:
        hyperdet(rand_tensor(rng, shape))
    assert set(reached) == set(_SCHLAEFLI_FORMATS)
    for shape in [(3, 3, 3), (2, 3, 4), (2, 2, 2, 2, 2), (7, 7), ()]:
        reached.clear()
        with pytest.raises((DomainError, UnsupportedFormatError)):
            hyperdet(Tensor.zeros(shape))
        assert reached == []
    assert split.cache_info().currsize <= 5


def test_integer_2222_reads_its_2x2_pencils_in_closed_form(monkeypatch):
    # one step writes the quartic from the mixed determinants of the 2x2 halves,
    # with no recursion and no determinant of its own
    module = importlib.import_module("hyperforms.hyperdet")
    t = rand_tensor(random.Random(41), (2, 2, 2, 2))
    want = hyperdet(t)
    schlaefli, calls, dets = module._schlaefli, [], []
    monkeypatch.setattr(module, "_schlaefli",
                        lambda shape, xs: calls.append(shape) or schlaefli(shape, xs))
    monkeypatch.setattr(module, "det_rows", lambda rows: dets.append(rows))
    assert hyperdet(t) == want
    assert calls == [(2, 2, 2, 2)]
    assert dets == []


def test_hyperdet_degrees_with_symbolic_entries():
    # fully generic entries stay feasible for the three-axis formats
    for shape, want in (((2, 2, 2), 4), ((2, 2, 3), 6)):
        size = 1
        for n in shape:
            size *= n
        names = tuple(f"a{i}" for i in range(size))
        t = Tensor(shape, [parse_poly(nm, names) for nm in names])
        h = hyperdet(t)
        assert h.homogeneous_degree_in(names) == want


def test_hyperdet_2222_homogeneous_of_degree_24():
    # the generic expansion is astronomically large, so certify the degree
    # by exact scaling: entries a*lam give lam^24 times the numeric value
    rng = random.Random(29)
    lam = parse_poly("lam", ("lam",))
    for _ in range(3):
        t = rand_tensor(rng, (2, 2, 2, 2), bound=4)
        value = hyperdet(t)
        scaled = t.map_entries(lambda p: p * lam)
        got = hyperdet(scaled)
        assert got == value * lam ** 24
        if not value.is_zero():
            assert got.homogeneous_degree_in(("lam",)) == 24


def test_slicewise_gl_invariance_222():
    rng = random.Random(17)
    for _ in range(10):
        t = rand_tensor(rng, (2, 2, 2))
        g = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
        detg = Fraction(g[0][0] * g[1][1] - g[0][1] * g[1][0])
        for axis in range(3):
            assert hyperdet(t.apply_gl(axis, g)) == detg ** 2 * hyperdet(t)


def test_scaling_one_axis_scales_by_lambda_4():
    rng = random.Random(19)
    t = rand_tensor(rng, (2, 2, 2))
    lam = Fraction(3)
    g = [[lam, 0], [0, lam]]
    assert hyperdet(t.apply_gl(1, g)) == lam ** 4 * hyperdet(t)


def test_hyperdet_223_axis_placements_agree():
    rng = random.Random(23)
    for _ in range(10):
        t = rand_tensor(rng, (2, 2, 3))
        h = hyperdet(t)
        assert hyperdet(t.transpose((0, 2, 1))) == h
        assert hyperdet(t.transpose((2, 0, 1))) == h


def test_hyperdet_2222_known_diagonal():
    # diagonal 2x2x2x2 tensor: pencil hyperdet is the binary quartic
    # disc-chain value, checked against an independent hand computation
    vals = [0] * 16
    vals[0] = 1   # (0,0,0,0)
    vals[15] = 1  # (1,1,1,1)
    t = const_tensor((2, 2, 2, 2), vals)
    # pencil T(u): diag entries u0 at 000, u1 at 111 -> hyperdet = u0^2 u1^2
    # (Cayley closed form), then disc of the formal quartic u0^2 u1^2:
    # partials (2u0u1^2, 2u0^2u1), Res = 16 * Res(u0 u1^2, u0^2 u1) = 0
    assert hyperdet(t).is_zero()


def test_hyperdet_square_dispatch():
    t = const_tensor((3, 3), [2, 0, 0, 0, 3, 0, 0, 0, 4])
    assert hyperdet(t) == 24


# -- pinned library outputs ------------------------------------------------------


def _library_outputs(seed=13):
    """Printed results of a seeded sweep over the Schlaefli chain: hyperdet on
    every supported multidimensional format and on 6x6, hyperhessians,
    hyperresultants, a ternary quadratic discriminant and the contractions of
    a 2x2x3 tensor, each with integer, rational, zeta6 and symbolic entries."""
    rng = random.Random(seed)
    kinds = {
        "int": lambda: rng.randint(-5, 5),
        "rational": lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        "zeta6": lambda: rng.randint(-2, 2) + rng.randint(-2, 2) * zeta(6),
        "symbolic": lambda: MultiPoly(("a", "b"), {(1, 0): rng.randint(-2, 2),
                                                  (0, 1): rng.randint(-2, 2),
                                                  (0, 0): rng.randint(-2, 2)}),
    }

    def form(kind, vs, degree):
        mons = [e for e in itertools.product(range(degree + 1), repeat=len(vs))
                if sum(e) == degree]
        return sum((MultiPoly(vs, {e: 1}) * kind() for e in mons), MultiPoly.zero(vs))

    for name, kind in kinds.items():
        for shape in [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2), (6, 6)]:
            t = Tensor(shape, [kind() for _ in range(math.prod(shape))])
            yield f"{name} hyperdet {shape}: {hyperdet(t)}"
        for key in ((1, 1, 1), (1, 1, 1, 1)):
            yield f"{name} hyperhessian {key}: {hyperhessian(form(kind, XY, len(key)), key, XY)}"
        for m in (2, 3):
            forms = [form(kind, XY, 2) for _ in range(m)]
            yield f"{name} hyperresultant {m}: {hyperresultant(forms, XY)}"
        uvw = ("u0", "u1", "u2")
        yield f"{name} ternary_quadratic_disc: {ternary_quadratic_disc(form(kind, uvw, 2), uvw)}"
        t = Tensor((2, 2, 3), [kind() for _ in range(12)])
        for axis in range(3):
            u = ("u0", "u1", "u2")[:t.shape[axis]]
            yield f"{name} contract_axis {axis}: {t.contract_axis(axis, u).to_json()}"


def test_library_outputs_are_pinned():
    # any change to the printed results of the sweep changes this digest
    text = "\n".join(_library_outputs())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "cbf3c006f14f0632e9749b0c6995a11f6e182900441877a9da477aaabe51ce0d")
