import itertools
import math
import random
from fractions import Fraction

import pytest

from hyperforms.errors import DomainError
from hyperforms.gramm import gramm_tensor, project_k
from hyperforms.parser import parse_poly
from hyperforms.polarisation import jacobi_form, jacobi_sequence, polarize
from hyperforms.poly import MultiPoly
from hyperforms.scalars import Cyclotomic, zeta
from hyperforms.tensor import Tensor, check_shape, multi_indices

from schlaefli import fresh_names
from shared import const_tensor, rand_tensor


# -- multi-index enumeration ------------------------------------------------------


def test_multi_indices_degree_one_binary():
    assert multi_indices(2, 1) == ((1, 0), (0, 1))


def test_multi_indices_degree_two_binary():
    # oracle: exhaustive enumeration, then the package's fixed ordering
    got = multi_indices(2, 2)
    brute = {e for e in itertools.product(range(3), repeat=2) if sum(e) == 2}
    assert set(got) == brute
    assert len(got) == 3
    assert got == tuple(sorted(brute, reverse=True))


def test_multi_indices_unit_vectors():
    assert multi_indices(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_multi_indices_counts_match_binomial():
    for nvars in range(1, 5):
        for degree in range(0, 7):
            got = multi_indices(nvars, degree)
            assert len(got) == math.comb(nvars - 1 + degree, degree)
            assert len(set(got)) == len(got)
            assert all(sum(e) == degree for e in got)


def test_multi_indices_match_brute_force():
    # oracle: every exponent vector with the right sum, in descending order
    for nvars in range(1, 7):
        for degree in range(9):
            brute = [e for e in itertools.product(range(degree + 1), repeat=nvars)
                     if sum(e) == degree]
            assert multi_indices(nvars, degree) == tuple(sorted(brute, reverse=True))


# -- indexing -----------------------------------------------------------------------


def test_flatten_roundtrip_random_shapes():
    rng = random.Random(4)
    for _ in range(10):
        shape = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        t = Tensor.zeros(shape)
        for flat, idx in enumerate(t.indices()):
            assert t.flat_index(idx) == flat
            assert t.unflatten(flat) == idx


def test_entry_count_validated():
    with pytest.raises(ValueError):
        Tensor((2, 2), [MultiPoly.constant(1)] * 3)


def test_shape_entry_count_is_bounded():
    assert check_shape([8, 8, 8, 8]) == (8, 8, 8, 8)
    assert check_shape((2,) * 12) == (2,) * 12
    for shape in ((2,) * 13, (8, 8, 8, 8, 2), (2,) * 40):
        with pytest.raises(DomainError, match="4096 entries"):
            check_shape(shape)
    with pytest.raises(DomainError, match="4096 entries"):
        Tensor.zeros((2,) * 40)


@pytest.mark.parametrize("shape", [(2.7, 2), ("3", 2), (2, Fraction(2))])
def test_shape_sizes_must_be_integers(shape):
    with pytest.raises(TypeError):
        check_shape(shape)


def test_shape_size_bool_counts_as_int():
    assert [type(n) for n in check_shape((True, 2))] == [int, int]


# -- contraction ----------------------------------------------------------------------


def test_contract_identity_matrix_gives_vector():
    t = const_tensor((2, 2), [1, 0, 0, 1])
    v = t.contract_axis(0, ("u0", "u1"))
    assert v.shape == (2,)
    assert v[(0,)] == parse_poly("u0", ("u0", "u1"))
    assert v[(1,)] == parse_poly("u1", ("u0", "u1"))


def test_contract_diagonal_222():
    vals = [0] * 8
    vals[0] = 1  # (0,0,0)
    vals[7] = 1  # (1,1,1)
    t = const_tensor((2, 2, 2), vals)
    m = t.contract_axis(2, ("u0", "u1"))
    # oracle: direct summation over the contracted axis
    assert m[(0, 0)] == parse_poly("u0", ("u0", "u1"))
    assert m[(1, 1)] == parse_poly("u1", ("u0", "u1"))
    assert m[(0, 1)].is_zero() and m[(1, 0)].is_zero()


def test_contract_zero_tensor():
    t = Tensor.zeros((2, 2, 2))
    m = t.contract_axis(1, ("u0", "u1"))
    assert m.shape == (2, 2)
    assert all(p.is_zero() for p in m.entries)


def test_contract_variable_collision():
    t = Tensor((2,), [parse_poly("u0", ("u0",)), MultiPoly.constant(1)])
    with pytest.raises(DomainError):
        t.contract_axis(0, ("u0", "u1"))


def test_fresh_names_avoid_collisions():
    assert fresh_names(("x", "y"), 2) == ("u0", "u1")
    assert fresh_names(("u0", "x"), 2) == ("_u0", "_u1")


# -- GL action -------------------------------------------------------------------------


def test_apply_gl_identity():
    rng = random.Random(1)
    t = rand_tensor(rng, (2, 2, 2))
    g = [[1, 0], [0, 1]]
    assert t.apply_gl(1, g) == t


def test_apply_gl_then_inverse_restores():
    rng = random.Random(2)
    t = rand_tensor(rng, (2, 2))
    g = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    ginv = [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    assert t.apply_gl(0, g).apply_gl(0, ginv) == t


def test_apply_gl_composition_is_matrix_product():
    rng = random.Random(6)
    t = rand_tensor(rng, (2, 2, 2))
    g = [[2, 1], [0, 1]]
    h = [[1, 3], [1, 0]]
    gh = [[sum(g[i][k] * h[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    assert t.apply_gl(0, h).apply_gl(0, g) == t.apply_gl(0, gh)


def test_contraction_commutes_with_gl_on_other_axis():
    rng = random.Random(7)
    for _ in range(5):
        t = rand_tensor(rng, (2, 2, 2))
        g = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
        left = t.apply_gl(0, g).contract_axis(2, ("u0", "u1"))
        right = t.contract_axis(2, ("u0", "u1")).apply_gl(0, g)
        assert left == right


def test_apply_gl_with_polynomial_rows_on_constants():
    # a polynomial row entry takes the polynomial route, also on a tensor of constants
    a = MultiPoly.variable("a")
    got = Tensor((2, 2), [1, 2, 3, 4]).apply_gl(0, [[a, 1], [0, a]])
    assert got == Tensor((2, 2), [a + 3, a * 2 + 4, a * 3, a * 4])
    assert got.vars == ("a",)


def test_apply_gl_dimension_mismatch():
    t = Tensor.zeros((2, 3))
    with pytest.raises(DomainError):
        t.apply_gl(0, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize("shape, axis, g", [
    ((2, 3), 1, [[1, 0, 0], [0, 1, 0]]),      # 2x3 on a 3-axis
    ((2, 3), 0, [[1, 0], [0, 1], [1, 1]]),    # 3x2 on a 2-axis
    ((2, 3), 0, [[1, 0], [0]]),               # ragged rows
])
def test_apply_gl_refuses_non_square_matrices(shape, axis, g):
    t = Tensor.zeros(shape)
    with pytest.raises(DomainError, match=f"matrix must be {shape[axis]}x{shape[axis]}"):
        t.apply_gl(axis, g)


@pytest.mark.parametrize("entries", [[1, 2, 3, 4], [MultiPoly.variable("a"), 2, 3, 4]])
def test_apply_gl_refuses_a_non_scalar_row_entry(entries):
    # numeric and symbolic tensors alike: a row entry must be a number or a polynomial
    t = Tensor((2, 2), entries)
    with pytest.raises(TypeError, match="unsupported coefficient type: str"):
        t.apply_gl(0, [[1, "x"], [0, 1]])


@pytest.mark.parametrize("entries", [[1, 2, 3, 4], [MultiPoly.variable("a"), 2, 3, 4]])
def test_apply_gl_bool_entries_act_as_integers(entries):
    t = Tensor((2, 2), entries)
    got = t.apply_gl(1, [[True, False], [True, True]])
    assert got == t.apply_gl(1, [[1, 0], [1, 1]])
    assert all(type(c) is int for p in got.entries for c in p.terms.values())


def test_contract_middle_axis_equals_transpose_then_contract_last():
    rng = random.Random(11)
    texts = ["2", "-1/3", "0", "x", "y^2", "x - y", "zeta6*x"]
    for _ in range(5):
        t = Tensor((2, 3, 2), [parse_poly(rng.choice(texts), ("x", "y")) for _ in range(12)])
        names = ("u0", "u1", "u2")
        direct = t.contract_axis(1, names)
        moved = t.transpose((0, 2, 1)).contract_axis(2, names)
        assert direct.to_json() == moved.to_json()


# -- JSON round-trip ---------------------------------------------------------------------


def test_json_roundtrip_bit_exact():
    t = Tensor((2, 2, 2), [parse_poly(s, ("x", "y")) for s in (
        "x", "0", "3*x^2*y - 1/2*y^3", "x + y", "-x", "2", "y^3", "7*x*y")])
    text = t.to_json()
    back = Tensor.from_json(text)
    assert back == t
    assert back.to_json() == text


def test_repeated_variable_names_are_refused_before_any_json():
    # the entry would be re-keyed into the second slot, and its JSON would not read back
    with pytest.raises(ValueError, match=r"^duplicate variable names in \('a', 'a'\)$"):
        Tensor((1,), [parse_poly("a", ("a",))], ("a", "a"))
    with pytest.raises(ValueError, match="duplicate variable names"):
        Tensor.from_json('{"shape": [1], "vars": ["a", "a"], "entries": ["a"]}')


def test_json_shape_and_vars_preserved():
    t = Tensor.zeros((2, 3), ("x", "y"))
    d = t.to_json_dict()
    assert d["shape"] == [2, 3]
    assert d["vars"] == ["x", "y"]
    assert len(d["entries"]) == 6


def test_tensor_subtraction():
    a, b = const_tensor((2, 2), [5, 0, -1, 2]), const_tensor((2, 2), [1, 3, -1, 0])
    assert a - b == const_tensor((2, 2), [4, -3, 0, 2])
    assert (a - a).entries == Tensor.zeros((2, 2)).entries


# -- tensors of constants ----------------------------------------------------------------


def _canonical(c):
    if type(c) is Cyclotomic:
        return all(map(_canonical, c.coeffs))
    return type(c) is int or type(c) is Fraction and c.denominator > 1


def test_tensors_of_constants_build_entries_on_first_read(monkeypatch):
    rng = random.Random(29)
    values = [rng.choice([0, 3, -1, Fraction(1, 2), Fraction(4, 2), True, zeta(6), 1 - zeta(6)])
              for _ in range(27)]
    g = [[1, 2, 0], [0, 1, Fraction(1, 2)], [3, 0, 1]]
    # a polynomial row entry takes the polynomial route, as every tensor did before
    want = Tensor((3, 3, 3), values, ("a",)).apply_gl(1, [[MultiPoly.constant(1), 2, 0]] + g[1:])
    built, constant = [], MultiPoly.constant
    monkeypatch.setattr(MultiPoly, "constant",
                        staticmethod(lambda v, vs=(): built.append(v) or constant(v, vs)))
    t = Tensor((3, 3, 3), values, ("a",))
    acted = t.apply_gl(1, g)
    parts = [project_k(t, k) for k in range(6)]
    assert not built
    assert acted.entries == want.entries
    for got in [t, acted] + parts:
        assert all(map(_canonical, got._items))
        for p in got.entries:
            assert p.vars == ("a",)
            assert all(c and _canonical(c) for c in p.terms.values())
    assert [p.terms for p in t.entries] == [{(0,): 1 if v is True else v} if v else {}
                                            for v in values]
    assert built


def test_reading_an_entry_lifts_that_item_alone(monkeypatch):
    t = Tensor((3, 3, 3), [Fraction(i, 2) for i in range(27)], ("a",))
    built, raw = [], MultiPoly._raw
    monkeypatch.setattr(MultiPoly, "_raw",
                        classmethod(lambda cls, vs, terms: built.append(terms) or raw(vs, terms)))
    p = t[1, 2, 0]
    assert built == [p.terms] and p.vars == ("a",) and p.terms == {(0,): Fraction(15, 2)}
    built.clear()
    assert repr(t) == "Tensor(shape=(3, 3, 3), [0, 1/2, 1, 3/2, ...])" and len(built) == 4


def test_value_backed_and_entry_backed_tensors_compare_by_value():
    values = [0, 2, Fraction(1, 2), zeta(6)]
    t = Tensor((2, 2), values)
    assert t == const_tensor((2, 2), values) and const_tensor((2, 2), values) == t
    assert t == Tensor((2, 2), values, ("a", "b"))  # as for MultiPoly, the variables do not count
    assert t != const_tensor((2, 2), values[:3] + [1])
    assert t != Tensor((2, 2), values[:3] + [MultiPoly.variable("a")])
    assert t != Tensor((4,), values)
    doubled = t + const_tensor((2, 2), values)
    assert doubled == const_tensor((2, 2), [0, 4, 1, 2 * zeta(6)])
    assert [type(v) for v in doubled._items] == [int, int, int, Cyclotomic]
    assert (t - t)._items == [0] * 4 and all(type(v) is int for v in (t - t)._items)
    assert t.transpose((1, 0)) == const_tensor((2, 2), [0, Fraction(1, 2), 2, zeta(6)])


def test_every_tensor_holds_canonical_values_and_non_constant_polynomials():
    ab = ("a", "b")
    a, b = MultiPoly.variable("a", ab), MultiPoly.variable("b", ab)
    # the orbit of (0, 0, 1) sums to a constant polynomial, -a + a + 1
    mixed = Tensor((2, 2, 2), [a, -a, a, Fraction(4, 2), a * 2 - a - a + 1, b - b, True,
                               MultiPoly.constant(Fraction(1, 2), ("c",))], ab)
    numeric = Tensor((2, 2, 2), [1, Fraction(1, 2), zeta(6), 0, 3, -1, 2, 1 - zeta(6)])
    f, g = parse_poly("x^3 + a*x*y^2 - 2*y^3", ("x", "y", "a")), parse_poly("x^3", ("x", "y"))
    made = [mixed, numeric, Tensor((2,), [MultiPoly.constant(3, ("c",)), a - a]),
            Tensor((3,), [MultiPoly.variable("b"), a, b - b]), Tensor((1,), [a], ("c", "b", "a")),
            mixed + mixed, mixed - mixed, numeric + numeric, numeric - numeric, mixed - numeric,
            mixed.transpose((2, 0, 1)), numeric.transpose((1, 0, 2)),
            numeric.apply_gl(0, [[1, 2], [Fraction(1, 2), True]]),
            mixed.apply_gl(1, [[1, -1], [1, -1]]), numeric.apply_gl(2, [[a, 1], [0, a - 1]]),
            numeric.apply_gl(2, [[MultiPoly.constant(1, ("c",)), 0], [0, 1]]),
            gramm_tensor(numeric, [[1, 2], [Fraction(1, 3), 0]]), gramm_tensor(mixed, [[1, 1]]),
            polarize(f, (1, 1), ("x", "y")), jacobi_form([f, g], (2,), ("x", "y")),
            jacobi_sequence(f, 3, ("x", "y")), jacobi_sequence(f, 4, ("x", "y")),
            mixed.contract_axis(1, ("u0", "u1")), numeric.contract_axis(0, ("u0", "u1"))]
    made += [project_k(t, k) for t in (numeric, mixed) for k in range(2)]  # both routes
    assert any(type(x) is MultiPoly for x in mixed._items)
    for t in made:
        for x in t._items:
            if type(x) is MultiPoly:
                assert x.vars == t.vars and x.total_degree() > 0, (x, t)
            else:
                assert _canonical(x), (x, t)
