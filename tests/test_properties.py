"""Property tests: ring axioms, the multiply-accumulate kernel, one-pass
derivatives against iterated partials, exact division and exact quotients
over mixed ``int``, ``Fraction`` and ``zeta6`` coefficients, the field
axioms of ``Cyclotomic`` and the print/parse round trip of ``zeta<m>``
coefficients, the parser against its per-token oracle on valid and malformed
strings, contraction against the multiply route and the pencil built by hand,
resultants of any two degrees, hyperdeterminants against the contraction route,
the closed-form pencil of two 2x2 slices against interpolation, tensors, matrices and binary
forms that mix constant and symbolic entries against all-polynomial oracles, skew projections
of numeric tensors against the polynomial route (also with a fresh variable
substituted away, types and variables included), hyperresultants of
random systems against the format rule, and CLI argvs that may only end in
documented exit codes."""

import contextlib
import importlib
import io
import itertools
import json
import math
import os
import tempfile
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hyperforms.classical import sylvester_resultant  # noqa: E402
from hyperforms.cli import run_command  # noqa: E402
from hyperforms.errors import DomainError, ParseError, UnsupportedFormatError  # noqa: E402
from hyperforms.gramm import project_k  # noqa: E402
from hyperforms.hyperdet import (  # noqa: E402
    binary_form_disc, cayley_hyperdet_222, det_rows, hyperdet, hyperdet_degree)
from hyperforms.parser import parse_poly  # noqa: E402
from hyperforms.polarisation import hyperresultant  # noqa: E402
from hyperforms.poly import MultiPoly  # noqa: E402
from hyperforms.scalars import Cyclotomic, exact_quotient, zeta  # noqa: E402
from hyperforms.tensor import Tensor, fresh_names  # noqa: E402

from parser_oracle import parse_poly as oracle_parse  # noqa: E402
from partials import derivative as iterated_derivative  # noqa: E402
from schlaefli import contraction_hyperdet, pencil_by_interpolation  # noqa: E402
from substitute import subs  # noqa: E402
from sylvester import sylvester_disc, sylvester_rows  # noqa: E402

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
@given(polys(), polys(), scalars)
def test_sub_is_add_of_negation(p, q, c):
    # operands on other variable orders, and a scalar on either side
    assert p - q == p + (-q)
    for a, b in ((p, q), (p, q.with_vars(q.vars[::-1])), (p, c), (c, p)):
        got, want = a - b, a + (-1) * b
        assert (got.vars, got.terms) == (want.vars, want.terms)


_XY_WITH_COEFFS = st.sampled_from([("x", "y"), ("a", "x", "y"), ("y", "b", "x")])


@bounded
@given(_XY_WITH_COEFFS.flatmap(polys))
@example(MultiPoly.zero(("x", "y")))
@example(MultiPoly(("x", "y"), {(1, 1): zeta(6), (1, 0): -zeta(6), (2, 3): Fraction(1, 2)}))
def test_dehomogenize_equals_substituting_one(p):
    # p need not be homogeneous; keys that coincide without y sum, and may cancel
    got, want = p.dehomogenize("x", "y"), subs(p, {"y": 1}).drop_vars(["y"])
    assert (str(got), got.vars) == (str(want), want.vars)
    assert not [c for c in got.terms.values() if type(c) is Fraction and c.denominator == 1]


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


_FORMATS = [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2)]


@st.composite
def mixed_format_tensors(draw):
    shape = draw(st.sampled_from(_FORMATS[:4] + [(3, 3)]))
    entry = st.one_of(st.just(0), scalars, polys(("a", "b")), polys(("b",)))
    entries = draw(st.lists(entry, min_size=math.prod(shape), max_size=math.prod(shape)))
    return Tensor(shape, entries, draw(st.sampled_from([None, ("b", "a")])))


@bounded
@given(mixed_format_tensors())
def test_contract_axis_is_the_pencil_built_by_hand(t):
    for axis in range(t.ndim):
        u = fresh_names(t.vars, t.shape[axis])
        got = t.contract_axis(axis, u)
        assert got.shape == t.shape[:axis] + t.shape[axis + 1:] and got.vars == t.vars + u
        for idx in got.indices():
            want = MultiPoly.zero()
            for j, uj in enumerate(u):
                want = want + MultiPoly.variable(uj) * t[idx[:axis] + (j,) + idx[axis:]]
            assert got[idx].terms == want.with_vars(got.vars).terms
_ST = ("s", "t")


@st.composite
def format_tensors(draw):
    # one kind of entry per tensor, drawn from a seeded Random so that few results
    # are zero by chance; one time in three a slice along some axis is zero, which
    # drops the degree of the pencil's form when that axis is split
    shape = draw(st.sampled_from(_FORMATS))
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from([
        lambda: rng.randint(-9, 9),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        lambda: rng.randint(-3, 3) + rng.randint(-3, 3) * zeta(6),
        lambda: MultiPoly(_ST, {(1, 0): rng.randint(-3, 3), (0, 1): rng.randint(-3, 3),
                                (0, 0): rng.randint(-3, 3)})]))
    entries = [kind() for _ in range(math.prod(shape))]
    if draw(st.integers(0, 2)) == 0:
        axis = draw(st.integers(0, len(shape) - 1))
        j = draw(st.integers(0, shape[axis] - 1))
        inner = math.prod(shape[axis + 1:])
        entries = [0 if i // inner % shape[axis] == j else e for i, e in enumerate(entries)]
    return Tensor(shape, entries, draw(st.sampled_from([None, _ST])))


@settings(max_examples=80, deadline=None, database=None)
@given(format_tensors())
@example(Tensor((2, 2, 2, 2), [0] * 16, _ST))
@example(Tensor((2, 3, 2), [0] * 12))
def test_hyperdet_matches_contraction_route(t):
    got, oracle = hyperdet(t), contraction_hyperdet(t)
    assert got.vars == oracle.vars == t.vars and got == oracle


# a constant, or one time in three a polynomial in s and t (itself constant at times)
_mixed_entry = st.one_of(st.just(0), rationals, st.builds(
    lambda a, b, c: MultiPoly(_ST, {(1, 0): a, (0, 1): b, (0, 0): c}), ints, ints, ints))


@st.composite
def mixed_tensors(draw):
    shape = draw(st.sampled_from(_FORMATS + [(2, 2), (3, 3), (4, 4)]))
    size = math.prod(shape)
    return Tensor(shape, draw(st.lists(_mixed_entry, min_size=size, max_size=size)), _ST)


@settings(max_examples=60, deadline=None, database=None)
@given(mixed_tensors())
def test_mixed_tensors_match_all_polynomial_oracles(t):
    got = hyperdet(t)
    if t.ndim == 2:  # every entry gains u, so the oracle eliminates polynomials only
        u, n = MultiPoly.variable("u"), t.shape[0]
        rows = [t.entries[i:i + n] for i in range(0, n * n, n)]
        oracle = subs(det_rows([[p + u for p in row] for row in rows]), {"u": 0})
        assert det_rows(rows) == got
    else:
        oracle = contraction_hyperdet(t)
    if t.shape == (2, 2, 2):
        assert cayley_hyperdet_222(t) == oracle
    assert got.vars == t.vars and got == oracle


def _binary(cs):
    # sum_i c_i x^(d-i) y^i on (s, t, x, y), each c_i a number or a polynomial in s and t
    d, terms = len(cs) - 1, {}
    for i, c in enumerate(cs):
        for e, v in (c.terms.items() if type(c) is MultiPoly else [((0, 0), c)]):
            terms[e + (d - i, i)] = v
    return MultiPoly(_ST + ("x", "y"), terms)


@settings(max_examples=15, deadline=None, database=None)
@given(st.integers(5, 6).flatmap(lambda d: st.tuples(
    st.lists(_mixed_entry, min_size=d + 1, max_size=d + 1),
    st.integers(1, 4).flatmap(lambda n: st.lists(_mixed_entry, min_size=n + 1, max_size=n + 1)))))
def test_mixed_binary_forms_match_sylvester(case):
    f, g = map(_binary, case)
    d, n = len(case[0]) - 1, len(case[1]) - 1
    disc = binary_form_disc(f, ("x", "y"), degree=d)
    assert disc.vars == _ST and disc == sylvester_disc(f, ("x", "y"), d)
    assume(not f.is_zero() and not g.is_zero())
    avec, bvec = f.binary_coefficients(("x", "y")), g.binary_coefficients(("x", "y"))
    assert str(sylvester_resultant(f, g)) == str(det_rows(sylvester_rows(avec, bvec, d, n)))


@st.composite
def pencil_slices(draw):
    # the entries of a 2x2x2 tensor, whose slices along the last axis are the pair:
    # one kind of entry per tensor, or each entry of its own kind
    linear = st.builds(lambda c, s, t: MultiPoly(_ST, {(0, 0): c, (1, 0): s, (0, 1): t}),
                       ints, ints, ints)
    kinds = [ints, st.fractions(-9, 9, max_denominator=9),
             st.builds(lambda a, b: a + b * zeta(6), ints, ints), linear]
    entry = draw(st.sampled_from(kinds + [st.one_of(kinds)]))
    return draw(st.lists(entry, min_size=8, max_size=8))


@bounded
@given(pencil_slices())
@example([0] * 8)
def test_closed_form_pencil_matches_interpolation(entries):
    module = importlib.import_module("hyperforms.hyperdet")
    seen, closed_form = [], module._closed_form_disc
    t = Tensor((2, 2, 2), entries, _ST)
    with mock.patch.object(module, "_closed_form_disc",
                           lambda cs: seen.append(cs) or closed_form(cs)):
        hyperdet(t)
    (cs,) = seen
    oracle = pencil_by_interpolation(lambda m: det_rows([m[:2], m[2:]]),
                                     t.entries[0::2], t.entries[1::2], 2)
    assert [c if type(c) is MultiPoly else MultiPoly.constant(c, _ST) for c in cs] == oracle


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


@st.composite
def derivative_cases(draw):
    # int, Fraction and Cyclotomic coefficients; orders run past each exponent
    # (up to 5 against at most 3) and include zeros; names in any order
    m = draw(st.sampled_from([3, 5, 8]))
    p = draw(polys(coeffs=st.one_of(scalars, cyclotomics(m, 4))))
    names = draw(st.permutations(p.vars))
    return p, names, draw(st.tuples(*[st.integers(0, 5)] * len(names)))


@bounded
@given(derivative_cases())
@example((MultiPoly(("x", "y"), {(3, 1): Fraction(1, 6), (1, 0): zeta(5)}), ("y", "x"), (1, 3)))
def test_derivative_matches_iterated_partials(case):
    p, names, orders = case
    got, want = p.derivative(names, orders), iterated_derivative(p, names, orders)
    assert (got.vars, got.terms) == (p.vars, want.terms)


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


_spaces = st.sampled_from(["", " ", "  "])
_atoms = st.one_of(
    st.integers(0, 12).map(str),
    st.builds(lambda a, s, t, b: f"{a}{s}/{t}{b}", st.integers(0, 12), _spaces, _spaces,
              st.integers(1, 9)),
    st.sampled_from(["x", "y"] * 3 + ["zeta6"] * 2 + ["zeta2", "zeta1"]))
# high exponents on atoms only: a sum of several terms to the 64th takes seconds
_group_exponents = st.sampled_from(["0", "1", "2", "3"])
_exponents = st.sampled_from(["0", "1", "2", "3", "007", "32", "40", "64"])


@st.composite
def _sums(draw, depth=2):
    text = ""
    for i in range(draw(st.integers(1, 3))):
        if i:
            text += draw(st.sampled_from([" + ", " - ", "+", "-"]))
        for j in range(draw(st.integers(1, 3))):
            if j:
                text += draw(st.sampled_from(["*", " * "]))
            text += "-" * draw(st.sampled_from([0, 0, 0, 1, 2]))
            group = depth and draw(st.integers(0, 2)) == 0
            text += f"({draw(_sums(depth - 1))})" if group else draw(_atoms)
            if draw(st.integers(0, 2)) == 0:
                text += "^" + draw(_group_exponents if group else _exponents)
    return text


@st.composite
def _expressions(draw):
    text = draw(_sums())
    if draw(st.booleans()):  # one edit, which mostly makes the text malformed
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["", "(", ")", "+", "*", "^", "$", "2", "t", "zeta65", "/0",
                                     " / ", "^65", "^1/2", "^-1"]))
        text = text[:i] + edit + text[i + draw(st.integers(0, 1)):]
    return text


def _parsed(parse, text):
    try:
        p = parse(text, ("x", "y"))
    except ParseError as exc:
        return str(exc), exc.position
    return p.vars, {e: (type(c), c) for e, c in p.terms.items()}


@settings(max_examples=150, deadline=None, database=None)
@given(_expressions())
@example("(0*x^2)^40")
@example("x^40*0*x^40 - 0*y^40*y^40")
@example("(x - x)^64")
@example("--x")
@example("zeta6^3")
@example("(45*zeta6)*x*y - (25 - 25*zeta6)*y + (zeta6 - 1 - zeta6^2)")
@example("(zeta6 + zeta6^5)*x")
@example("1 / 2*x - 3/ 4*y^2 + 5 /6 - 7 / 0")
@example("x^64*x")
@example("(x + y)^40*(x - 1/2*y)^24")
@example("(x + zeta6)^65")
@example("(1 + x + y + x*y)^22")  # at most C(25, 3) = 2300 terms
@example("(1 + x + y + x*y)^23")  # C(26, 3) = 2600 > 2500
@example("(1 + x + y)^8*(1 - x - y)^8")  # 45 * 45 = 2025 terms
@example("(1 + x + y)^9*(1 - x - y)^9")  # 55 * 55 = 3025 > 2500
@example("(" * 98 + "x" + ")" * 98)
@example("(" * 99 + "x" + ")" * 99)
@example("(" * 100 + "x" + ")" * 100)
@example("-" * 98 + "x")
@example("-" * 99 + "x")
@example("-" * 100 + "x")
@example("-(" * 49 + "x" + ")" * 49)
@example("-(" * 50 + "x" + ")" * 50)
def test_parser_matches_the_per_token_oracle(text):
    # the same polynomial with the same coefficient types, or the same error at
    # the same position; a depth of 99 or 100 parses and 101 is refused
    assert _parsed(parse_poly, text) == _parsed(oracle_parse, text)


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


# -- numeric inputs: the scalar route against the polynomial route --------------------


_T = ("t",)
_numbers = st.one_of(ints, rationals, st.builds(lambda a, b: a + b * zeta(6), ints, ints))


def _at_zero(p):
    """The value at t = 0 of a polynomial in t."""
    return subs(p, {"t": 0}).as_scalar()


@st.composite
def numeric_matrices(draw):
    # zero entries are common; a zero row, a zero column or a zero leading pivot is
    # forced one time in four each.  N (small integers, not all zero) makes the
    # entries of M + t*N polynomials, so that side runs the polynomial route.
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), _numbers)
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    spoil, k = draw(st.integers(0, 3)), draw(st.integers(0, n - 1))
    if spoil == 1:
        m[k] = [0] * n
    elif spoil == 2:
        for row in m:
            row[k] = 0
    elif spoil == 3:
        m[0][0] = 0
    nudge = [[draw(st.integers(-1, 1)) for _ in range(n)] for _ in range(n)]
    nudge[k][draw(st.integers(0, n - 1))] = 1
    return m, nudge


@bounded
@given(numeric_matrices())
def test_numeric_det_matches_polynomial_route(case):
    m, nudge = case
    t = MultiPoly.variable("t")
    det = det_rows([[MultiPoly.constant(c) for c in row] for row in m])
    oracle = det_rows([[c + v * t for c, v in zip(row, vs)] for row, vs in zip(m, nudge)])
    assert det.vars == () and det == _at_zero(oracle)


@bounded
@given(st.integers(2, 6).flatmap(lambda d: st.tuples(
    st.lists(st.one_of(st.just(0), _numbers), min_size=d + 1, max_size=d + 1),
    st.lists(st.integers(-1, 1), min_size=d + 1, max_size=d + 1).filter(any))))
def test_numeric_binary_disc_matches_polynomial_route(case):
    cs, nudge = case
    d = len(cs) - 1
    t = MultiPoly.variable("t", ("x", "y", "t"))
    f = MultiPoly(("x", "y", "t"), {(d - i, i, 0): c for i, c in enumerate(cs)})
    g = MultiPoly(("x", "y", "t"), {(d - i, i, 0): v for i, v in enumerate(nudge)})
    disc = binary_form_disc(f, ("x", "y"), degree=d)
    assert disc.vars == _T and disc == _at_zero(binary_form_disc(f + t * g, ("x", "y"), degree=d))


@st.composite
def skew_tensors(draw):
    # zero, int, Fraction and order-d! cyclotomic entries: project_k runs on the values
    d = draw(st.sampled_from((2, 3, 4)))
    dim, m = 2 if d == 4 else draw(st.integers(2, 3)), math.factorial(d)
    root_power = st.builds(lambda c, e: c * zeta(m) ** e, rationals, st.integers(1, m - 1))
    entry = st.one_of(st.just(0), rationals, st.builds(lambda a, b: a + b, rationals, root_power))
    return Tensor((dim,) * d, draw(st.lists(entry, min_size=dim ** d, max_size=dim ** d)))


@settings(max_examples=12, deadline=None, database=None)
@given(skew_tensors())
def test_numeric_projections_match_polynomial_route(t):
    # t*s has a variable, so its projections run the polynomial route; both are linear in s
    s = MultiPoly.variable("s")
    parts = [project_k(t, k) for k in range(math.factorial(t.ndim))]
    for k, part in enumerate(parts):
        assert project_k(t.map_entries(lambda p: p * s), k) == part.map_entries(lambda p: p * s)
    assert sum(parts[1:], parts[0]) == t


@st.composite
def projection_cases(draw):
    # int, Fraction and order-d! cyclotomic entries; one entry gains c*b, b a fresh variable
    shape = draw(st.sampled_from([(3, 3), (3, 3, 3), (2, 2, 2, 2)]))
    m, size = math.factorial(len(shape)), math.prod(shape)
    root = st.builds(lambda c, e: c * zeta(m) ** e, rationals, st.integers(0, m - 1))
    entry = st.one_of(ints, st.fractions(-9, 9, max_denominator=9),
                      st.builds(lambda a, b: a + b, rationals, root))
    values = draw(st.lists(entry, min_size=size, max_size=size))
    coefficient = draw(st.sampled_from([1, -2, Fraction(1, 3)]))
    return shape, values, draw(st.integers(0, size - 1)), coefficient


def _typed_entries(t):
    return [(p.vars, sorted((e, repr(c)) for e, c in p.terms.items())) for p in t.entries]


@settings(max_examples=30, deadline=None, database=None)
@given(projection_cases())
def test_projection_values_route_matches_substituted_polynomial_route(case):
    # the projection is linear, so setting b = 0 after the polynomial route leaves the values'
    shape, values, pos, c = case
    t = Tensor(shape, values, ("a",))
    forced = [MultiPoly.constant(v, ("a", "b")) for v in values]
    forced[pos] = forced[pos] + c * MultiPoly.variable("b", ("a", "b"))
    forced = Tensor(shape, forced)
    assert type(forced._items[pos]) is MultiPoly  # so its projections run the polynomial route
    for k in range(math.factorial(len(shape))):
        want = Tensor(shape, [subs(p, {"b": 0}) for p in project_k(forced, k).entries], ("a",))
        assert _typed_entries(project_k(t, k)) == _typed_entries(want)


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


# -- CLI fuzz: every argv ends in a documented exit code ---------------------------


def _mostly(good, bad):
    """Draw from ``good`` three times in four, so that most argvs get past parsing."""
    return st.one_of(good, good, good, bad)


_GOOD_FORMS = ["x^2+y^2", "x^3-2*x*y^2+y^3", "x^4+x^2*y^2+y^4", "c*x^2+y^2", "x*y", "x",
               "0", "x^2", "y^2", "zeta6*x^2+y^2", "1/2*x^4-c*y^4", "(x+y)^3"]
_BAD_FORMS = ["", "x^", "x**2", "(x+y", "x^2+)", "2x", "q^2", "x^2+y", "x^65", "zeta65*x",
              "1/0*x", "x^" + "9" * 4301, "9" * 4301 + "*x", "(" * 101 + "x" + ")" * 101,
              "x^1e9", "x^2;y"]
_form_texts = _mostly(st.sampled_from(_GOOD_FORMS), st.one_of(
    st.sampled_from(_BAD_FORMS), st.text(alphabet="xyc12+-*/^(). ", max_size=8)))
_name_lists = _mostly(st.just("x,y"), st.sampled_from(["y,x", "x", "x,y,z", "", ",", "x,x", "1x"]))
_coeffs = _mostly(st.just(["--coeffs", "c"]), st.sampled_from(
    [[], ["--coeffs", ","], ["--coeffs", "x"]]))
_keys = _mostly(st.lists(st.integers(1, 2), min_size=1, max_size=3).map(
    lambda k: ",".join(map(str, k))), st.sampled_from(["1,a", ",", "0,-1", "99999999999999999999"]))


@st.composite
def _spoilt(draw, items, bad):
    """A list drawn from ``items`` with, one time in four, one entry drawn from ``bad``."""
    values = draw(items)
    if values and not draw(st.integers(0, 3)):
        values[draw(st.integers(0, len(values) - 1))] = draw(bad)
    return values


_good_entries = st.sampled_from(["1", "0", "-2", "1/3", "x", "zeta6"])
_vectors = _spoilt(st.lists(st.lists(st.sampled_from(["1", "0", "-3", "1/2", "0.5"]),
                                     min_size=2, max_size=2).map(",".join), max_size=3),
                   st.sampled_from(["1/0,1", "a", "", "1,1e999999999", "2E-5,0",
                                    "1," + "1" * 4301, "0." + "1" * 4301 + ",1"])).map(";".join)


@st.composite
def _tensor_json(draw):
    if not draw(st.integers(0, 5)):
        return draw(st.sampled_from(["", "[", "{}", "[" * 5000, '{"shape": "x"}', "null",
                                     '{"shape": [2], "vars": [], "entries": [1, 2]}']))
    shape = draw(_mostly(st.integers(2, 3).flatmap(lambda d: st.integers(1, 2).map(
        lambda n: [n] * d)), st.lists(st.integers(0, 3), max_size=4)))
    n = math.prod(shape) if draw(st.integers(0, 9)) else draw(st.integers(0, 5))
    entries = st.lists(_good_entries, min_size=n, max_size=n)
    return json.dumps({"shape": shape, "vars": draw(st.sampled_from([["x"]] * 5 + [["x", "x"]])),
                       "entries": draw(_spoilt(entries, st.sampled_from(["x^", "c", "9" * 4301])))})


@st.composite
def cli_argvs(draw):
    """(command, argv, tensor JSON text or None); --tensor and --form name one file."""
    command = draw(st.sampled_from(
        ["polarize", "hyperdet", "disc", "resultant", "hyperhessian", "hyperresultant",
         "jacobi", "wronskian", "hankel", "apolar", "gramm", "project", "verify"]))
    argv, tensor = [command], None
    if command in ("hyperdet", "project", "gramm"):
        tensor = draw(_tensor_json())
        argv += ["--form" if command == "gramm" else "--tensor", "TENSOR"]
        if command == "project":
            argv += ["--k", str(draw(st.integers(-1, 7)))]
        if command == "gramm":
            argv += ["--vectors", draw(_vectors)]
            argv += draw(st.sampled_from([[], ["--skew", "1"], ["--skew", "-1"]]))
    elif command == "verify":
        argv += ["--suite", draw(st.sampled_from(["prop21", "prop12", "skew", "oracle",
                                                  "parser", "all", "nope"])),
                 "--seed", str(draw(st.integers(0, 3))),
                 "--trials", draw(st.sampled_from(["0", "1", "2", "-1", "1001", "x"])),
                 "--range", draw(st.sampled_from(["0", "1", "9", "-1"]))]
    else:
        repeat = command in ("hyperresultant", "jacobi", "wronskian")
        for text in draw(st.lists(_form_texts, min_size=1, max_size=3 if repeat else 1)):
            argv += ["--f", text]
        if command == "resultant":
            argv += ["--g", draw(_form_texts)]
        argv += ["--vars", draw(_name_lists), *draw(_coeffs)]
        if command in ("polarize", "hyperhessian", "jacobi"):
            argv += ["--K", draw(_keys)]
        if command == "disc":
            argv += draw(st.sampled_from([[], ["--degree", "2"], ["--degree", "x"]]))
    if draw(st.booleans()):
        argv.append("--json")
    return command, argv, tensor


@settings(max_examples=150, deadline=None, database=None)
@given(cli_argvs())
def test_cli_exits_only_with_documented_codes(case):
    command, argv, tensor = case
    with tempfile.TemporaryDirectory() as tmp:
        if tensor is not None:
            path = os.path.join(tmp, "t.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(tensor)
            argv = [path if a == "TENSOR" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv)
    assert code in (0, 2, 3, 4) or (code == 1 and command == "verify"), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (3, 4):
        assert err.getvalue().count("\n") == 1
