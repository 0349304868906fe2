import itertools
import math
import random
from fractions import Fraction

import pytest

from hyperforms.errors import DomainError
from hyperforms.parser import parse_poly
from hyperforms.poly import MultiPoly
from hyperforms.tensor import Tensor, check_shape, fresh_names, multi_indices


def const_tensor(shape, values):
    return Tensor(shape, [MultiPoly.constant(v) for v in values])


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


def rand_tensor(rng, shape, bound=9):
    size = math.prod(shape)
    return const_tensor(shape, [rng.randint(-bound, bound) for _ in range(size)])


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
