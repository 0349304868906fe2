"""Property tests: ring axioms, the multiply-accumulate kernel, exact division
and exact quotients over mixed ``int``, ``Fraction`` and ``zeta6``
coefficients, the field axioms of ``Cyclotomic`` and the print/parse round
trip of ``zeta<m>`` coefficients, contraction against the multiply route,
resultants of any two degrees, and hyperresultants of random systems against the
format rule."""

import itertools
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hyperforms.classical import sylvester_resultant  # noqa: E402
from hyperforms.errors import DomainError, UnsupportedFormatError  # noqa: E402
from hyperforms.hyperdet import det_rows, hyperdet_degree  # noqa: E402
from hyperforms.parser import parse_poly  # noqa: E402
from hyperforms.polarisation import hyperresultant  # noqa: E402
from hyperforms.poly import MultiPoly  # noqa: E402
from hyperforms.scalars import Cyclotomic, exact_quotient, zeta  # noqa: E402
from hyperforms.tensor import Tensor, fresh_names  # noqa: E402

from sylvester import sylvester_rows  # noqa: E402

bounded = settings(max_examples=60, deadline=None, database=None)

ints = st.integers(-9, 9)
rationals = st.one_of(ints, st.fractions(-9, 9, max_denominator=9))
scalars = st.one_of(rationals, st.builds(lambda a, b: a + b * zeta(6), rationals, rationals))


@st.composite
def polys(draw, variables=None, coeffs=scalars):
    vs = variables or draw(st.sampled_from([("x", "y"), ("y", "z"), ("x",)]))
    exps = st.tuples(*[st.integers(0, 3)] * len(vs))
    return MultiPoly(vs, draw(st.dictionaries(exps, coeffs, max_size=4)))


@bounded
@given(polys(), polys(), polys())
def test_multipoly_ring_axioms(p, q, r):
    zero, one = MultiPoly.zero(), MultiPoly.constant(1)
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p + zero == p and p - p == zero
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * one == p
    assert p * (q + r) == p * q + p * r


@bounded
@given(polys(), polys())
def test_sub_is_add_of_negation(p, q):
    assert p - q == p + (-q)


@st.composite
def dot_cases(draw):
    # the target tuple covers every operand; some operands are already on it
    vs = draw(st.sampled_from([("x", "y", "z"), ("z", "y", "x")]))
    operand = st.one_of(polys(), polys(vs))
    return vs, draw(st.lists(st.tuples(operand, operand), max_size=4))


@bounded
@given(dot_cases())
def test_dot_is_sum_of_products(case):
    vs, pairs = case
    left, right = [p for p, _ in pairs], [q for _, q in pairs]
    d = MultiPoly.dot(vs, left, right)
    assert d.vars == vs
    assert d == sum((p * q for p, q in pairs), MultiPoly.zero())
    assert not [c for c in d.terms.values() if type(c) is Fraction and c.denominator == 1]


def _contract_by_products(t, axis, u):
    """The multiply route to ``t.contract_axis(axis, u)``: each entry is
    sum_j u_j * t[..., j, ...] formed with polynomial products."""
    vs = t.vars + u
    shape = t.shape[:axis] + t.shape[axis + 1:]
    entries = [sum((MultiPoly.variable(uj, vs) * t[idx[:axis] + (j,) + idx[axis:]]
                    for j, uj in enumerate(u)), MultiPoly.zero(vs))
               for idx in itertools.product(*map(range, shape))]
    return Tensor(shape, entries, vs)


@st.composite
def tensors(draw):
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    size = math.prod(shape)
    entry = st.one_of(st.just(0), scalars, polys(("a", "b")))
    variables = draw(st.sampled_from([None, ("b", "a")]))
    return Tensor(shape, draw(st.lists(entry, min_size=size, max_size=size)), variables)


@bounded
@given(tensors())
def test_contract_axis_matches_multiply_route(t):
    for axis in range(t.ndim):
        u = fresh_names(t.vars, t.shape[axis])
        got, oracle = t.contract_axis(axis, u), _contract_by_products(t, axis, u)
        assert (got.shape, got.vars) == (oracle.shape, oracle.vars)
        assert [p.terms for p in got.entries] == [p.terms for p in oracle.entries]


@bounded
@given(polys(("x", "y")), polys(("x", "y")))
def test_exact_div_inverts_mul(p, q):
    assume(not q.is_zero())
    assert (p * q).exact_div(q) == p


@bounded
@given(rationals, rationals)
def test_exact_quotient_matches_fraction_division(a, b):
    assume(b)
    q = exact_quotient(a, b)
    assert not isinstance(q, float)
    assert q == Fraction(a) / Fraction(b)
    assert type(q) is (int if q.denominator == 1 else Fraction)


# orders up to 30, with 24, the largest order the library builds
orders = st.sampled_from([3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 20, 24, 30])


def cyclotomics(m, max_size=8):
    return st.lists(rationals, min_size=1, max_size=max_size).map(
        lambda cs: sum((c * zeta(m) ** e for e, c in enumerate(cs)), Fraction(0)))


@bounded
@given(orders.flatmap(lambda m: st.tuples(*[cyclotomics(m)] * 3)))
def test_cyclotomic_ring_axioms(xyz):
    x, y, z = xyz
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@bounded
@given(orders.flatmap(cyclotomics))
def test_cyclotomic_times_inverse_is_one(x):
    assume(isinstance(x, Cyclotomic))
    assert x * x.inverse() == 1


@bounded
@given(st.sampled_from([3, 5, 8, 24, 30, 64]).flatmap(lambda m: polys(coeffs=cyclotomics(m, 4))))
def test_print_parse_round_trip_with_roots_of_unity(p):
    text = str(p)
    back = parse_poly(text, p.vars)
    assert back == p and str(back) == text


@st.composite
def form_pairs(draw):
    # degrees drawn independently, so m < n, m = n and m > n all occur, and
    # so do zero leading and trailing coefficients.  Rational coefficients: a
    # 16 x 16 Sylvester oracle over Q(zeta6) is slow, and
    # tests/test_classical.py covers zeta6 coefficients
    degrees = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return degrees, [MultiPoly(("x", "y"), {(d - i, i): c for i, c in enumerate(
        draw(st.lists(rationals, min_size=d + 1, max_size=d + 1)))}) for d in degrees]


@bounded
@given(form_pairs())
def test_resultant_matches_sylvester(pair):
    # compare printed results: == aligns variables and would hide their order
    (m, n), (f, g) = pair
    assume(not f.is_zero() and not g.is_zero())
    avec, bvec = f.binary_coefficients(("x", "y"), m), g.binary_coefficients(("x", "y"), n)
    assert str(sylvester_resultant(f, g)) == str(det_rows(sylvester_rows(avec, bvec, m, n)))


@st.composite
def systems(draw):
    # 1-3 variables, 1-4 forms of one degree 1-3; in some systems one form is zero
    geo = ("x", "y", "z")[:draw(st.integers(1, 3))]
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    exps = [e for e in itertools.product(range(k + 1), repeat=len(geo)) if sum(e) == k]
    coeffs = st.lists(ints, min_size=len(exps), max_size=len(exps)).filter(any)
    forms = [MultiPoly(geo, dict(zip(exps, draw(coeffs)))) for _ in range(m)]
    zeroed = draw(st.integers(0, 3 * m))  # below m: that form is zero
    if zeroed < m:
        forms[zeroed] = MultiPoly.zero(geo)
    return geo, k, forms


@settings(max_examples=120, deadline=None, database=None)
@given(systems())
def test_hyperresultant_answers_or_raises_as_hyperdet_degree(system):
    geo, k, forms = system
    shape = (len(geo),) * k + (len(forms),)
    try:
        hyperdet_degree(shape)
        expected = None
    except (DomainError, UnsupportedFormatError) as exc:
        expected = type(exc)
    if any(f.is_zero() for f in forms):
        expected = DomainError
    try:
        value = hyperresultant(forms, geo)
    except (DomainError, UnsupportedFormatError) as exc:
        assert type(exc) is expected, exc
    else:
        assert expected is None
        assert isinstance(value, MultiPoly)
