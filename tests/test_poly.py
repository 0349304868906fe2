import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import hyperforms
from hyperforms.errors import DomainError
from hyperforms.parser import parse_poly
from hyperforms.poly import MultiPoly, lift, lower
from hyperforms.scalars import zeta
from hyperforms.tensor import Tensor

from partials import derivative as iterated_derivative
from substitute import subs

XY = ("x", "y")


def P(text, variables=XY):
    return parse_poly(text, variables)


def random_poly(rng, variables=XY, max_terms=5, max_exp=4, bound=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[e] = Fraction(rng.randint(-bound, bound))
    return MultiPoly(variables, terms)


# -- multiplication -------------------------------------------------------------


def test_mul_difference_of_squares():
    assert P("x + y") * P("x - y") == P("x^2 - y^2")


def test_mul_absorbing_zero():
    p = P("3*x^2 - y")
    assert (p * MultiPoly.zero(XY)).is_zero()


def test_mul_square_matches_bruteforce_expansion():
    # oracle: expand (x+y)^2 term by term over all index pairs
    p = P("x + y")
    expected = MultiPoly.zero(XY)
    for e1, c1 in p.terms.items():
        for e2, c2 in p.terms.items():
            expected = expected + MultiPoly(XY, {tuple(a + b for a, b in zip(e1, e2)): c1 * c2})
    assert p * p == expected == P("x^2 + 2*x*y + y^2")


def test_power_refuses_exponents_that_are_not_integers():
    x = P("x")
    assert x ** True == x and x ** 0 == 1
    with pytest.raises(TypeError):
        x ** 2.0
    with pytest.raises(TypeError):
        x ** Fraction(2)
    with pytest.raises(ValueError, match="non-negative"):
        x ** -1


def test_ring_axioms_on_random_triples():
    rng = random.Random(42)
    for _ in range(25):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + q == q + p
        assert p * q == q * p


def test_degree_adds_for_nonzero_inputs():
    rng = random.Random(3)
    for _ in range(20):
        p, q = random_poly(rng), random_poly(rng)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).total_degree() == p.total_degree() + q.total_degree()


# -- derivatives ----------------------------------------------------------------


def test_third_partial_of_cubic_term():
    f = parse_poly("c30*x^3", ("c30", "x", "y"))
    assert f.partial("x", 3) == parse_poly("6*c30", ("c30", "x", "y"))


def test_partial_absent_variable():
    assert P("y^2").partial("x").is_zero()


def test_mixed_fourth_partial_matches_repeated_single_steps():
    f = P("x^2*y^2")
    # oracle: repeated single-step differentiation
    step = f
    for v in ("x", "x", "y", "y"):
        step = step.partial(v)
    assert step == f.partial("x", 2).partial("y", 2) == MultiPoly.constant(4, XY)


def test_derivative_takes_all_orders_at_once():
    f = P("x^3*y^2 + 1/2*x*y + 5")
    assert f.derivative(XY, (2, 1)) == P("12*x*y") == iterated_derivative(f, XY, (2, 1))
    assert f.derivative(("x", "x"), (1, 1)) == f.partial("x", 2)  # a repeated name adds up
    assert f.derivative(XY, (0, 0)) == f and f.derivative((), ()) == f
    assert f.derivative(XY, (4, 0)).is_zero() and f.derivative(XY, (4, 0)).vars == XY
    assert f.derivative(XY, (1, 1)).terms[(0, 0)] == Fraction(1, 2)


def test_derivative_refuses_bad_orders_and_names():
    f = P("x^2*y")
    with pytest.raises(ValueError, match="order must be >= 0"):
        f.derivative(XY, (1, -1))
    with pytest.raises(DomainError, match="unknown variable 'z'"):
        f.derivative(("z",), (1,))
    with pytest.raises(TypeError):
        f.derivative(XY, (1, 1.0))
    with pytest.raises(ValueError):  # one order per name
        f.derivative(XY, (1,))
    with pytest.raises(TypeError):
        f.partial("x", 2.0)


@pytest.mark.parametrize("query", [lambda f: f.homogeneous_degree_in(("x", "z")),
                                   lambda f: f.uses("z"),
                                   lambda f: f.coefficients_in(("z",))],
                         ids=["homogeneous_degree_in", "uses", "coefficients_in"])
def test_queries_refuse_an_unknown_name_as_derivative_does(query):
    with pytest.raises(DomainError, match=r"^unknown variable 'z'; have \('x', 'y'\)$"):
        query(P("x^2"))


def test_coefficients_in_groups_terms_by_exponents():
    f = parse_poly("a*x^2 + 3*x^2 - b*x*y + 7", ("a", "x", "b", "y"))
    groups = f.coefficients_in(XY)
    assert set(groups) == {(2, 0), (1, 1), (0, 0)}
    assert all(g.vars == ("a", "b") for g in groups.values())
    assert groups[2, 0] == parse_poly("a + 3", ("a", "b"))
    assert groups[1, 1] == parse_poly("-b", ("a", "b")) and groups[0, 0] == 7
    assert MultiPoly.zero(XY).coefficients_in(("x",)) == {}


def test_homogeneous_derivative_degree_drop():
    f = P("x^3 + 2*x^2*y - y^3")
    assert f.partial("x").homogeneous_degree_in(XY) == 2


def test_euler_identity_binary():
    rng = random.Random(9)
    for k in (2, 3, 4):
        terms = {(k - i, i): Fraction(rng.randint(-9, 9)) for i in range(k + 1)}
        f = MultiPoly(XY, terms)
        if f.is_zero():
            continue
        euler = P("x") * f.partial("x") + P("y") * f.partial("y")
        assert euler == k * f


# -- exact division ---------------------------------------------------------------


def test_exact_div_factorisation():
    assert P("x^2 - y^2").exact_div(P("x - y")) == P("x + y")


def test_exact_div_not_divisible():
    # oracle: multivariate division leaves remainder 2*y^2 != 0
    assert P("x^2 + y^2").exact_div(P("x - y")) is None


def test_exact_div_self():
    rng = random.Random(5)
    for _ in range(10):
        p = random_poly(rng)
        if p.is_zero():
            continue
        assert p.exact_div(p) == MultiPoly.constant(1, XY)


def test_exact_div_roundtrip_random():
    rng = random.Random(8)
    for _ in range(25):
        p, q = random_poly(rng), random_poly(rng)
        if q.is_zero():
            continue
        assert (p * q).exact_div(q) == p


def test_exact_div_by_zero():
    with pytest.raises(DomainError):
        P("x").exact_div(MultiPoly.zero(XY))


# -- substitution ------------------------------------------------------------------


def test_eval_at_point():
    p = P("x^2 - y^2")
    assert subs(p, {"x": 3, "y": 2}) == MultiPoly.constant(5)


def test_eval_is_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(10):
        p, q = random_poly(rng), random_poly(rng)
        at = {"x": Fraction(rng.randint(-5, 5)), "y": Fraction(rng.randint(-5, 5))}
        assert subs(p * q, at) == subs(p, at) * subs(q, at)
        assert subs(p + q, at) == subs(p, at) + subs(q, at)


def test_gl_substitution_preserves_degree():
    # oracle: composing with an invertible linear map via mul/pow
    f = P("x^3 - 2*x*y^2")
    x, y = P("x"), P("y")
    g = subs(f, {"x": 2 * x + y, "y": x - y})
    assert g.homogeneous_degree_in(XY) == 3
    # brute-force oracle: sum c * (2x+y)^i * (x-y)^j
    expected = MultiPoly.zero(XY)
    for (i, j), c in f.terms.items():
        expected = expected + c * (2 * x + y) ** i * (x - y) ** j
    assert g == expected


def test_eval_of_zero():
    assert subs(MultiPoly.zero(XY), {"x": 1, "y": 2}).is_zero()


def test_partial_assignment_keeps_variables():
    p = P("x^2 - y^2")
    q = subs(p, {"y": 1})
    assert q == parse_poly("x^2 - 1", XY)


# -- dehomogenize -------------------------------------------------------------------


def test_dehomogenize_examples():
    assert P("x^2 - y^2").dehomogenize("x", "y") == parse_poly("x^2 - 1", ("x",))
    assert P("x*y").dehomogenize("x", "y") == parse_poly("x", ("x",))


def test_dehomogenize_with_coefficient_variables():
    f = parse_poly("c40*x^4 + c04*y^4", ("c40", "c04", "x", "y"))
    assert f.dehomogenize("x", "y") == parse_poly("c40*x^4 + c04", ("c40", "c04", "x"))


def test_dehomogenize_wrong_names():
    with pytest.raises(DomainError):
        P("x^2").dehomogenize("x", "t")
    with pytest.raises(DomainError, match="not two distinct ones"):
        P("x^2 + x*y").dehomogenize("x", "x")


def test_dehomogenize_sums_coinciding_keys():
    assert P("x*y + x").dehomogenize("x", "y") == parse_poly("2*x", ("x",))
    cancelled = P("x*y - x + y^2").dehomogenize("x", "y")
    assert (str(cancelled), cancelled.vars) == ("1", ("x",))
    whole = P("1/2*x*y^2 + 1/2*x").dehomogenize("x", "y")
    assert whole.terms == {(1,): 1} and type(whole.terms[(1,)]) is int


def test_scalar_minus_polynomial():
    x = P("x")
    assert str(1 - x) == "-x + 1"
    assert 1 - x == parse_poly("1 - x", XY)
    assert Fraction(1, 2) - x == parse_poly("1/2 - x", XY)
    assert (1 - x).vars == XY
    with pytest.raises(TypeError, match="for -: 'float' and 'MultiPoly'"):
        1.5 - x
    # subtraction adds the negation, so mixed roots of unity are refused as by +
    w = MultiPoly.constant(zeta(6), XY)
    for bad in (lambda: w - zeta(4), lambda: w + (-1) * zeta(4)):
        with pytest.raises(ValueError, match="mixed cyclotomic orders 6 and 4"):
            bad()


# -- variable plumbing ---------------------------------------------------------------


def _by_names(p, variables):
    """Terms of ``p`` reindexed onto ``variables`` by looking each name up:
    the oracle for every path through ``with_vars``."""
    return {tuple(dict(zip(p.vars, e)).get(v, 0) for v in variables): c
            for e, c in p.terms.items()}


def test_with_vars_fast_paths_equal_general_reindex():
    rng = random.Random(17)
    xyz = ("x", "y", "z")
    for p in [MultiPoly.zero(XY)] + [random_poly(rng) for _ in range(40)]:
        for target in (xyz, XY + ("z", "w"), ("y", "x", "z"), ("z", "x", "y")):  # appended or not
            q = p.with_vars(target)
            assert q.vars == target and q.terms == _by_names(p, target)
        r = p.with_vars(xyz)
        x_only = MultiPoly(xyz, {e: c for e, c in r.terms.items() if not e[1]})
        for q, target in ((r, XY), (x_only, ("x",)), (r, ("y", "x"))):  # unused suffix or not
            d = q.with_vars(target)
            assert d.vars == target and d.terms == _by_names(q, target)


def test_with_vars_refuses_to_drop_a_used_trailing_variable():
    with pytest.raises(ValueError, match=r"drop used variables \['z'\]"):
        P("x*z + y", ("x", "y", "z")).with_vars(XY)


def test_pencil_realigns_parts_on_other_variables():
    # contracting one axis with (u0, u1) builds the pencil u0*A_0 + u1*A_1 on vars + names,
    # whatever variable order the parts were given on
    vs = ("y", "x")
    p, q = P("x^2 + 3*y", ("x", "y")), P("2*x - 1/2", ("x",))
    got = Tensor((2,), [p, q], vs).contract_axis(0, ("u0", "u1"))
    oracle = MultiPoly.variable("u0") * p + MultiPoly.variable("u1") * q
    assert got.shape == () and got.vars == vs + ("u0", "u1")
    assert got[()].terms == oracle.with_vars(got.vars).terms
    assert got[()] == P("u0*x^2 + 3*u0*y + 2*u1*x - 1/2*u1", got.vars)
    with pytest.raises(DomainError, match=r"collide with \['x'\]"):  # a name already in use
        Tensor((2,), [p, q], vs).contract_axis(0, ("x", "u1"))
    with pytest.raises(DomainError, match="must be distinct"):
        Tensor((2,), [p, q], vs).contract_axis(0, ("u0", "u0"))


def test_every_product_of_polynomials_runs_in_addmul(monkeypatch):
    # one multiply-accumulate kernel: with it refused, every symbolic product fails
    x, y, s = P("x"), P("y"), P("x + y")
    t = Tensor((2, 2), [x, 1, y, s])
    calls = [lambda: s * x, lambda: s ** 2, lambda: MultiPoly.dot(XY, [s], [y]),
             lambda: P("(x + y)*(x - y)"), lambda: t.contract_axis(0, ("u0", "u1")),
             lambda: t.apply_gl(1, [[x, 1], [0, y]])]
    for call in calls:
        call()

    def refuse(*args):
        raise RuntimeError("product outside the kernel")

    monkeypatch.setattr(hyperforms.poly, "_addmul", refuse)
    for call in calls:
        with pytest.raises(RuntimeError, match="outside the kernel"):
            call()


# -- canonical form ------------------------------------------------------------------


def test_constructor_refuses_exponents_that_are_not_integers():
    for bad in (1.5, 2.0, Fraction(2), "2", None):
        with pytest.raises(TypeError, match="exponents must be integers"):
            MultiPoly(("x", "y"), {(bad, 1): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        MultiPoly(("x", "y"), {(2, -1): 1})
    p = MultiPoly(("x", "y"), {(True, 2): 3, (0, False): 1})
    assert p.terms == {(1, 2): 3, (0, 0): 1}
    assert all(type(x) is int for e in p.terms for x in e)
    assert str(p) == "3*x*y^2 + 1"


def test_lower_reads_constants_only():
    xy = ("x", "y")
    items = [lower(p) for p in (MultiPoly.zero(xy), MultiPoly.constant(Fraction(6, 3), xy),
                                MultiPoly.constant(Fraction(1, 2)), MultiPoly.constant(zeta(6), xy))]
    assert items == [0, 2, Fraction(1, 2), zeta(6)]
    assert [type(v) for v in items[:2]] == [int, int]
    scalars = [lower(v) for v in (True, Fraction(4, 2), Fraction(1, 2), zeta(6))]
    assert scalars == [1, 2, Fraction(1, 2), zeta(6)] and [type(v) for v in scalars[:2]] == [int, int]
    for p in (P("x"), MultiPoly.constant(1) + P("x"), P("x*y + x")):
        assert lower(p) is p
    with pytest.raises(TypeError, match="unsupported coefficient type: str"):
        lower("x")
    for x in items + [P("x*y + x")]:  # lift undoes lower, on the given variables
        assert lift(x, ("y", "x", "a")).vars == ("y", "x", "a") and lower(lift(x, xy)) == x


def test_no_stored_zero_coefficients():
    p = P("x - x + y")
    assert list(p.terms.values()) == [Fraction(1)]


def test_equality_is_structural_after_alignment():
    a = parse_poly("x + y", ("x", "y"))
    b = parse_poly("y + x", ("y", "x"))
    assert a == b


def test_grlex_rendering_order():
    assert str(P("y^3 + x^2*y")) == "x^2*y + y^3"
    assert str(P("x + x^2 - 1")) == "x^2 + x - 1"


def test_term_format_stays_private_to_poly():
    # other modules go through MultiPoly's methods (dot among them), so the
    # term representation can change inside poly.py alone
    src = Path(hyperforms.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("terms", "_raw"):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not found, found


def test_tensor_items_stay_private_to_the_tensor_kernels():
    # a tensor's items (a constant held as its value) are read by the tensor and the
    # kernels on it only, so the decision of how to store a constant cannot spread again
    src = Path(hyperforms.__file__).parent
    readers = {"tensor.py", "hyperdet.py", "gramm.py", "polarisation.py"}
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             if path.name not in readers
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "_items"]
    assert not found, found
