import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hyperforms
from hyperforms.classical import hankel_matrix, sylvester_resultant
from hyperforms.errors import DomainError, UnsupportedFormatError
from hyperforms.hyperdet import binary_form_disc, det_rows
from hyperforms.parser import parse_poly
from hyperforms.poly import MultiPoly
from hyperforms.polarisation import (
    hyperhessian,
    hyperresultant,
    jacobi_form,
    jacobi_sequence,
    polarize,
)

from substitute import subs

XY = ("x", "y")
CUBIC_VARS = ("c30", "c21", "c12", "c03", "x", "y")
QUARTIC_VARS = ("c40", "c31", "c22", "c13", "c04", "x", "y")


def P(text, variables=XY):
    return parse_poly(text, variables)


def symbolic_cubic():
    return parse_poly("c30*x^3 + c21*x^2*y + c12*x*y^2 + c03*y^3", CUBIC_VARS)


def symbolic_quartic():
    return parse_poly("c40*x^4 + c31*x^3*y + c22*x^2*y^2 + c13*x*y^3 + c04*y^4",
                      QUARTIC_VARS)


def random_form(rng, degree, bound=9):
    while True:
        f = MultiPoly(XY, {(degree - i, i): Fraction(rng.randint(-bound, bound))
                           for i in range(degree + 1)})
        if not f.is_zero():
            return f


# -- polarize ---------------------------------------------------------------------


def test_full_polarisation_of_cubic():
    t = polarize(symbolic_cubic(), (1, 1, 1), XY)
    assert t.shape == (2, 2, 2)
    assert t[0, 0, 0] == parse_poly("6*c30", CUBIC_VARS)
    assert t[0, 0, 1] == t[0, 1, 0] == t[1, 0, 0] == parse_poly("2*c21", CUBIC_VARS)
    assert t[0, 1, 1] == t[1, 0, 1] == t[1, 1, 0] == parse_poly("2*c12", CUBIC_VARS)
    assert t[1, 1, 1] == parse_poly("6*c03", CUBIC_VARS)


def test_pair_polarisation_of_quartic_is_catalecticant_matrix():
    t = polarize(symbolic_quartic(), (2, 2), XY)
    assert t.shape == (3, 3)
    m = hankel_matrix(symbolic_quartic())
    for idx in t.indices():
        assert t[idx] == m[idx]


def test_single_slot_polarisation_is_gradient():
    f = P("x^3 - 2*x*y^2")
    t = polarize(f, (1,), XY)
    assert t.shape == (2,)
    assert t[(0,)] == f.partial("x")
    assert t[(1,)] == f.partial("y")


def test_slot_symmetry_for_equal_key_entries():
    rng = random.Random(51)
    f = random_form(rng, 4)
    t = polarize(f, (1, 2, 1), XY)
    assert t.shape == (2, 3, 2)
    for i in range(2):
        for j in range(3):
            for k in range(2):
                assert t[i, j, k] == t[k, j, i]


def test_entry_homogeneity():
    rng = random.Random(53)
    for key in ((1, 1), (2, 1), (1, 1, 1)):
        f = random_form(rng, 5)
        t = polarize(f, key, XY)
        want = 5 - sum(key)
        for p in t.entries:
            assert p.is_zero() or p.homogeneous_degree_in(XY) == want


def test_euler_contraction_of_hessian():
    # contracting one slot of the Hessian with (x, y) gives (k-1) * gradient
    rng = random.Random(57)
    for k in (2, 3, 4):
        f = random_form(rng, k)
        hess = polarize(f, (1, 1), XY)
        contracted = hess.contract_axis(1, ("s0", "s1"))
        sub = {"s0": P("x", XY + ("s0", "s1")), "s1": P("y", XY + ("s0", "s1"))}
        grad = polarize(f, (1,), XY)
        for i in range(2):
            got = subs(contracted[(i,)], sub).drop_vars(("s0", "s1"))
            assert got == (k - 1) * grad[(i,)]


def test_key_weight_exceeding_degree_rejected():
    with pytest.raises(DomainError):
        polarize(P("x^2 + y^2"), (2, 1), XY)


def test_constant_entries_when_key_exhausts_degree():
    t = polarize(P("x^2 + x*y"), (1, 1), XY)
    for p in t.entries:
        assert p.total_degree() <= 0


# -- hyperhessian ------------------------------------------------------------------


def test_usual_hessian():
    f = parse_poly("a*x^2 + b*x*y + c*y^2", ("a", "b", "c", "x", "y"))
    assert hyperhessian(f, (1, 1), XY) == parse_poly(
        "4*a*c - b^2", ("a", "b", "c", "x", "y"))


def test_cubic_hyperhessian_is_multiple_of_disc():
    from hyperforms.hyperdet import binary_form_disc
    rng = random.Random(61)
    ratios = set()
    for _ in range(10):
        f = random_form(rng, 3)
        disc = binary_form_disc(f).as_scalar()
        if not disc:
            continue
        ratios.add(hyperhessian(f, (1, 1, 1), XY).as_scalar() / disc)
    assert ratios == {Fraction(-48)}


def test_quartic_111_hessian_is_quartic_in_xy():
    t = hyperhessian(symbolic_quartic(), (1, 1, 1), XY)
    assert t.homogeneous_degree_in(XY) == 4
    assert t.homogeneous_degree_in(("c40", "c31", "c22", "c13", "c04")) == 4


def test_inadmissible_key_shape_propagates():
    with pytest.raises(DomainError, match="4x2"):
        hyperhessian(symbolic_quartic(), (3, 1), XY)


def test_ternary_quadratic_hessian_matches_second_partial_determinant():
    # cross-module coherence: the (1,1)-polarisation of a ternary quadratic
    # is its matrix of second partials, so the hyperhessian equals the
    # ternary quadratic discriminant
    from hyperforms.hyperdet import ternary_quadratic_disc
    uvw = ("u0", "u1", "u2")
    rng = random.Random(49)
    for _ in range(5):
        terms = {}
        for i in range(3):
            for j in range(i, 3):
                e = [0, 0, 0]
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = Fraction(rng.randint(-9, 9))
        q = MultiPoly(uvw, terms)
        if q.is_zero():
            continue
        assert hyperhessian(q, (1, 1), uvw) == ternary_quadratic_disc(q, uvw)


def test_pair_key_hyperhessian_relative_invariance():
    # weight determined once symbolically: H22(f o g) = det(g)^6 * H22(f)
    gv = ("a", "b", "c", "d")
    allv = gv + QUARTIC_VARS
    f = parse_poly(
        "c40*x^4 + c31*x^3*y + c22*x^2*y^2 + c13*x*y^3 + c04*y^4", allv)
    x, y = parse_poly("x", allv), parse_poly("y", allv)
    a, b, c, d = (parse_poly(v, allv) for v in gv)
    moved = subs(f, {"x": a * x + b * y, "y": c * x + d * y})
    det = a * d - b * c
    assert hyperhessian(moved, (2, 2), XY) == det ** 6 * hyperhessian(f, (2, 2), XY)
    rng = random.Random(59)
    for _ in range(5):
        fn = random_form(rng, 4)
        g = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        detg = g[0] * g[3] - g[1] * g[2]
        if not detg:
            continue
        xn, yn = parse_poly("x", XY), parse_poly("y", XY)
        movedn = subs(fn, {"x": g[0] * xn + g[1] * yn, "y": g[2] * xn + g[3] * yn})
        assert hyperhessian(movedn, (2, 2), XY) == detg ** 6 * hyperhessian(fn, (2, 2), XY)


# -- jacobi form --------------------------------------------------------------------


def test_jacobi_two_quadratics_layout():
    fv = ("a20", "a11", "a02", "b20", "b11", "b02", "x", "y")
    f1 = parse_poly("a20*x^2 + a11*x*y + a02*y^2", fv)
    f2 = parse_poly("b20*x^2 + b11*x*y + b02*y^2", fv)
    t = jacobi_form([f1, f2], (1, 1), XY)
    assert t.shape == (2, 2, 2)
    # system axis last: entry (i1, i2, j) is a second partial of f_j
    assert t[0, 0, 0] == f1.partial("x", 2)
    assert t[0, 0, 1] == f2.partial("x", 2)
    assert t[0, 1, 0] == t[1, 0, 0] == f1.partial("x").partial("y")
    assert t[1, 1, 1] == f2.partial("y", 2)


def test_jacobi_first_order_is_jacobian_matrix():
    f1, f2 = P("x^2 - y^2"), P("x*y")
    t = jacobi_form([f1, f2], (1,), XY)
    assert t.shape == (2, 2)
    assert t[0, 0] == f1.partial("x")
    assert t[0, 1] == f2.partial("x")
    assert t[1, 0] == f1.partial("y")
    assert t[1, 1] == f2.partial("y")


def test_jacobi_three_quadratics_is_223():
    t = jacobi_form([P("x^2"), P("x*y"), P("y^2")], (1, 1), XY)
    assert t.shape == (2, 2, 3)


def test_jacobi_mixed_degrees_rejected():
    with pytest.raises(DomainError):
        jacobi_form([P("x^2"), P("x^3")], (1,), XY)


# -- hyperresultant ------------------------------------------------------------------


def test_hyperresultant_coprime_squares():
    # hand Schlaefli: pencil det 4*u0*u1, disc 16
    assert hyperresultant([P("x^2"), P("y^2")], XY) == 16


def test_hyperresultant_ratio_to_resultant_constant():
    from hyperforms.classical import sylvester_resultant
    rng = random.Random(63)
    ratios = set()
    for _ in range(10):
        f, g = random_form(rng, 2), random_form(rng, 2)
        res = sylvester_resultant(f, g).as_scalar()
        if not res:
            continue
        ratios.add(hyperresultant([f, g], XY).as_scalar() / res)
    assert ratios == {Fraction(16)}


def test_hyperresultant_triple_is_wronskian_square_multiple():
    from hyperforms.classical import wronskian3
    assert hyperresultant([P("x^2"), P("x*y"), P("y^2")], XY) == 32  # 8 * W^2, W = 2
    rng = random.Random(67)
    ratios = set()
    for _ in range(10):
        fs = [random_form(rng, 2) for _ in range(3)]
        w = wronskian3(*fs).as_scalar()
        if not w:
            continue
        ratios.add(hyperresultant(fs, XY).as_scalar() / w ** 2)
    assert ratios == {Fraction(8)}


def test_hyperresultant_shared_root_vanishes():
    assert hyperresultant([P("x^2"), P("x^2 + x*y")], XY).is_zero()


def test_hyperresultant_cubic_pair_shared_root_vanishes():
    rng = random.Random(71)
    for _ in range(5):
        lin = random_form(rng, 1)
        f, g = lin * random_form(rng, 2), lin * random_form(rng, 2)
        assert hyperresultant([f, g], XY).is_zero()


def test_hyperresultant_unsupported_format_named():
    with pytest.raises(UnsupportedFormatError, match="2x2x2x2x2"):
        hyperresultant([P("x^4 + y^4"), P("x^4 - y^4")], XY)


def test_hyperresultant_of_two_linear_forms_is_their_resultant():
    rng = random.Random(73)
    for _ in range(10):
        f, g = random_form(rng, 1), random_form(rng, 1)
        assert hyperresultant([f, g], XY) == sylvester_resultant(f, g)
    assert hyperresultant([P("2*x + 3*y"), P("5*x + y")], XY) == -13


def test_hyperresultant_of_three_linear_forms_is_their_determinant():
    xyz = ("x", "y", "z")
    rng = random.Random(79)
    for _ in range(10):
        coeffs = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        forms = [MultiPoly(xyz, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})
                 for a, b, c in coeffs]
        rows = [[MultiPoly.constant(c) for c in row] for row in coeffs]
        assert hyperresultant(forms, xyz) == det_rows(rows)


@pytest.mark.parametrize("texts, shape", [
    (("x^2", "y^2", "x*y", "x^2 + y^2"), "2x2x4"),
    (("x", "y", "x + y"), "2x3"),
])
def test_hyperresultant_nonexistent_format_is_domain_error(texts, shape):
    with pytest.raises(DomainError, match=f"does not exist for format {shape}$"):
        hyperresultant([P(t) for t in texts], XY)


# -- jacobi sequence --------------------------------------------------------------------


def test_jacobi_sequence_gradient():
    t = jacobi_sequence(P("x*y"), 1, XY)
    assert t.shape == (2,)
    assert t[(0,)] == P("y")
    assert t[(1,)] == P("x")


def test_jacobi_sequence_hessian_of_xy():
    t = jacobi_sequence(P("x*y"), 2, XY)
    assert t.shape == (2, 2)
    assert t[0, 0].is_zero() and t[1, 1].is_zero()
    assert t[0, 1] == MultiPoly.constant(1, XY)
    assert t[1, 0] == MultiPoly.constant(1, XY)


def test_jacobi_sequence_overdifferentiation_is_zero():
    t = jacobi_sequence(P("x*y"), 3, XY)
    assert all(p.is_zero() for p in t.entries)


def test_jacobi_sequence_terminal_step_matches_full_polarisation():
    rng = random.Random(73)
    f = random_form(rng, 3)
    assert jacobi_sequence(f, 3, XY) == polarize(f, (1, 1, 1), XY)


def test_jacobi_sequence_zero_steps_is_the_form_itself():
    f = P("x^2 - 3*y^2")
    t = jacobi_sequence(f, 0, XY)
    assert t.shape == ()
    assert t[()] == f


def test_polarisation_key_and_steps_must_be_integers():
    f = P("x^3 + y^3")
    with pytest.raises(TypeError):
        polarize(f, (1.9, 1), XY)  # int() would answer for the key (1, 1)
    with pytest.raises(TypeError):
        jacobi_sequence(f, 2.0, XY)
    assert polarize(f, (True, 1), XY) == polarize(f, (1, 1), XY)
    assert jacobi_sequence(f, True, XY) == jacobi_sequence(f, 1, XY)


def test_jacobi_sequence_slot_symmetry():
    rng = random.Random(79)
    f = random_form(rng, 4)
    t = jacobi_sequence(f, 3, XY)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert t[i, j, k] == t[j, i, k] == t[k, j, i]


def test_jacobi_sequence_steps_are_bounded():
    for steps in (-1, 65):
        with pytest.raises(DomainError, match=f"steps must be between 0 and 64, got {steps}$"):
            jacobi_sequence(P("x*y"), steps, XY)


def test_jacobi_sequence_refuses_huge_steps_before_building_a_shape():
    # (2,) * 10**8 alone is 800 MB; in a child with a 1 GB address space and a
    # timeout, a regression fails fast instead of hanging or swapping
    script = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
              "from hyperforms.parser import parse_poly; "
              "from hyperforms.polarisation import jacobi_sequence; "
              "jacobi_sequence(parse_poly('x*y', ('x', 'y')), 10**8, ('x', 'y'))")
    env = dict(os.environ, PYTHONPATH=str(Path(hyperforms.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=20)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == (
        "hyperforms.errors.DomainError: steps must be between 0 and 64, got 100000000")


# -- repeated form variables ---------------------------------------------------------------


def test_repeated_form_variables_are_refused():
    # with ("x", "x") these described forms that do not exist: a disc and a
    # hyperhessian of 0 and a 2x2 tensor of 4s
    xx = ("x", "x")
    cubic, quadric = P("x^3"), P("2*x^2")
    calls = [lambda: binary_form_disc(cubic, xx),
             lambda: hyperhessian(cubic, (1, 1, 1), xx),
             lambda: polarize(quadric, (1, 1), xx),
             lambda: polarize(quadric, (1,), ("x", "y", "x")),
             lambda: jacobi_form([quadric, quadric], (1,), xx),
             lambda: hyperresultant([quadric, quadric], xx),
             lambda: jacobi_sequence(cubic, 2, xx),
             lambda: cubic.binary_coefficients(xx),
             lambda: sylvester_resultant(cubic, quadric, xx)]
    for call in calls:
        with pytest.raises(DomainError, match=r"^form variables must be distinct, got \("):
            call()
