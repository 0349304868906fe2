import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from hyperforms import gramm
from hyperforms.errors import DomainError, UnsupportedFormatError
from hyperforms.gramm import (
    GrammValue,
    gramm_form,
    gramm_tensor,
    orbit_ord,
    project_k,
    projector_trace,
    skew_gramm,
)
from hyperforms.parser import parse_poly
from hyperforms.poly import MultiPoly
from hyperforms.scalars import zeta
from hyperforms.tensor import Tensor

from shared import const_tensor, rand_tensor


# -- orbit tables ------------------------------------------------------------------


def test_orbit_with_repeated_index():
    table = orbit_ord(3, 3)
    oi, j = table.ordinal[(0, 0, 1)]
    orbit = table.orbits[oi]
    assert orbit.arrangements == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert orbit.size == 3
    assert [table.ordinal[a][1] for a in orbit.arrangements] == [0, 1, 2]


def test_orbit_all_distinct():
    table = orbit_ord(3, 3)
    oi, _ = table.ordinal[(0, 1, 2)]
    orbit = table.orbits[oi]
    assert orbit.size == 6
    assert orbit.arrangements[0] == (0, 1, 2)
    assert orbit.arrangements == tuple(sorted(orbit.arrangements))


def test_orbit_singleton():
    table = orbit_ord(2, 2)
    oi, j = table.ordinal[(0, 0)]
    assert table.orbits[oi].size == 1 and j == 0


def test_orbit_sizes_sum_to_power():
    for d in (2, 3):
        for dim in (2, 3, 4):
            table = orbit_ord(d, dim)
            assert sum(o.size for o in table.orbits) == dim ** d


def test_orbit_range_validation():
    with pytest.raises(DomainError):
        orbit_ord(5, 2)
    with pytest.raises(DomainError):
        orbit_ord(3, 5)


def test_admissibility_rule():
    table = orbit_ord(3, 3)
    triple = table.orbits[table.ordinal[(0, 1, 2)][0]]   # size 6
    double = table.orbits[table.ordinal[(0, 0, 1)][0]]   # size 3
    single = table.orbits[table.ordinal[(0, 0, 0)][0]]   # size 1
    assert [k for k in range(6) if table.admissible(k, single)] == [0]
    assert [k for k in range(6) if table.admissible(k, double)] == [0, 2, 4]
    assert [k for k in range(6) if table.admissible(k, triple)] == list(range(6))


# -- projections --------------------------------------------------------------------


def test_projection_k0_is_symmetrisation():
    rng = random.Random(81)
    t = rand_tensor(rng, (3, 3, 3))
    p0 = project_k(t, 0)
    table = orbit_ord(3, 3)
    for orbit in table.orbits:
        avg = sum((t[a].as_scalar() for a in orbit.arrangements), Fraction(0))
        avg /= orbit.size
        for a in orbit.arrangements:
            assert p0[a].as_scalar() == avg


def test_projection_index_must_be_an_integer():
    t = rand_tensor(random.Random(3), (2, 2))
    with pytest.raises(TypeError):
        project_k(t, 1.0)
    assert project_k(t, True) == project_k(t, 1)


def test_projection_k3_is_antisymmetric_part():
    rng = random.Random(83)
    t = rand_tensor(rng, (3, 3, 3))
    p3 = project_k(t, 3)
    # only the all-distinct orbit survives, signs alternating with the
    # lexicographic ordinal of each arrangement
    for idx in t.indices():
        if len(set(idx)) < 3:
            assert p3[idx].as_scalar() == 0
    arrangements = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    base = p3[0, 1, 2].as_scalar()
    assert base != 0
    for j, arr in enumerate(arrangements):
        assert p3[arr].as_scalar() == (-1) ** j * base


def test_projection_membership_relation():
    rng = random.Random(87)
    t = rand_tensor(rng, (3, 3, 3))
    table = orbit_ord(3, 3)
    eps = zeta(6)
    for k in range(6):
        pk = project_k(t, k)
        for orbit in table.orbits:
            first = pk[orbit.arrangements[0]]
            for j, arr in enumerate(orbit.arrangements):
                assert pk[arr] == first * (eps ** (k * j))


def test_projection_completeness_and_orthogonality():
    rng = random.Random(89)
    t = rand_tensor(rng, (3, 3, 3))
    parts = [project_k(t, k) for k in range(6)]
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    assert total == t
    for k in range(6):
        assert project_k(parts[k], k) == parts[k]
        for j in range(6):
            if j != k:
                assert all(p.is_zero() for p in project_k(parts[j], k).entries)


def test_projector_ranks_d3_dim3():
    assert tuple(projector_trace(3, 3, k) for k in range(6)) == (10, 1, 7, 1, 7, 1)


@pytest.mark.parametrize("d, dim", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2)])
def test_projector_ranks_count_admissible_orbits(d, dim):
    # on an orbit of size s that admits eps^k, the diagonal of the projector is s times 1/s
    orbits = orbit_ord(d, dim).orbits
    for k in range(factorial(d)):
        assert projector_trace(d, dim, k) == sum(k * o.size % factorial(d) == 0 for o in orbits)


def test_projection_d2_splits_symmetric_antisymmetric():
    rng = random.Random(91)
    t = rand_tensor(rng, (4, 4))
    sym = project_k(t, 0)
    alt = project_k(t, 1)
    assert sym + alt == t
    for i in range(4):
        for j in range(4):
            assert sym[i, j] == sym[j, i]
            assert alt[i, j] == -1 * alt[j, i]


def test_projection_d4_completeness_over_zeta24():
    rng = random.Random(95)
    t = rand_tensor(rng, (2, 2, 2, 2), bound=5)
    parts = [project_k(t, k) for k in range(factorial(4))]
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    assert total == t
    assert sum(projector_trace(4, 2, k) for k in range(24)) == 2 ** 4


def test_projection_of_other_cyclotomic_orders():
    # eps = zeta(d!); an entry of another order meets eps in polynomial arithmetic,
    # which adds it to rational powers of eps and refuses the irrational ones
    t = Tensor((2, 2), [zeta(6), 1, zeta(4), 2])
    assert str(project_k(t, 1)[0, 1]) == "(1/2 - 1/2*zeta4)"
    assert [str(p) for p in project_k(t, 0).entries] == [
        "(zeta6)", "(1/2 + 1/2*zeta4)", "(1/2 + 1/2*zeta4)", "2"]
    t = Tensor((2, 2, 2), [zeta(4), zeta(4), 1, 3, 2, 0, 0, 1])
    assert [str(p) for p in project_k(t, 0).entries] == [
        "(zeta4)", "(1 + 1/3*zeta4)", "(1 + 1/3*zeta4)", "1", "(1 + 1/3*zeta4)", "1", "1", "1"]
    assert all(p.is_zero() for p in project_k(t, 3).entries)
    with pytest.raises(ValueError, match="mixed cyclotomic orders 4 and 6"):
        project_k(t, 2)


def test_projection_requires_hypercubic():
    with pytest.raises(DomainError):
        project_k(Tensor.zeros((2, 3)), 0)
    with pytest.raises(DomainError):
        project_k(Tensor.zeros((2, 2)), 2)


# -- gramm tensors ----------------------------------------------------------------------


def test_gramm_identity_form_standard_basis():
    form = const_tensor((3, 3), [1, 0, 0, 0, 1, 0, 0, 0, 1])
    basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    g = gramm_tensor(form, basis)
    for i in range(3):
        for j in range(3):
            assert g[i, j].as_scalar() == (1 if i == j else 0)


def test_gramm_zero_vector_kills_slices():
    rng = random.Random(93)
    form = rand_tensor(rng, (2, 2, 2))
    g = gramm_tensor(form, [[1, 2], [0, 0]])
    for idx in g.indices():
        if 1 in idx:
            assert g[idx].is_zero()


def test_gramm_rank_one_trilinear_contraction():
    # oracle: direct contraction when only F[0][0][0] = 1
    vals = [0] * 8
    vals[0] = 1
    form = const_tensor((2, 2, 2), vals)
    u = [[Fraction(2), Fraction(5)], [Fraction(3), Fraction(7)]]
    g = gramm_tensor(form, u)
    for idx in g.indices():
        want = u[idx[0]][0] * u[idx[1]][0] * u[idx[2]][0]
        assert g[idx].as_scalar() == want


def test_gramm_equivariance_under_tuple_mixing():
    rng = random.Random(97)
    form = rand_tensor(rng, (3, 3))
    vecs = [[Fraction(rng.randint(-9, 9)) for _ in range(3)] for _ in range(3)]
    g = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
    mixed = [[sum(g[i][k] * vecs[k][c] for k in range(3)) for c in range(3)]
             for i in range(3)]
    gm = gramm_tensor(form, vecs)
    mixed_gm = gramm_tensor(form, mixed)
    # oracle: g . G . g^T
    for i in range(3):
        for j in range(3):
            want = sum(g[i][a] * gm[a, b].as_scalar() * g[j][b]
                       for a in range(3) for b in range(3))
            assert mixed_gm[i, j].as_scalar() == want


def reference_gramm_tensor(form, vectors):
    """Each entry as its own d-fold contraction: entry (i_1, ..., i_d) sums
    form[j_1, ..., j_d] * v_i1[j_1] * ... * v_id[j_d] over every j."""
    d, m = form.ndim, len(vectors)
    entries = []
    for sel in itertools.product(range(m), repeat=d):
        acc = MultiPoly.zero(form.vars)
        for jdx in form.indices():
            coeff = Fraction(1)
            for slot, j in enumerate(jdx):
                coeff *= vectors[sel[slot]][j]
            if coeff:
                acc = acc + form[jdx] * coeff
        entries.append(acc)
    return Tensor((m,) * d, entries, form.vars)


@pytest.mark.parametrize("d, dim", [(2, 2), (2, 3), (3, 2)])
def test_gramm_tensor_matches_per_entry_contraction(d, dim):
    rng = random.Random(100 * d + dim)
    symbolic = ["3", "-1/2", "0", "a", "b^2", "a - 2*b^2", "zeta6", "2*zeta6*a - 1"]
    constant = ["3", "-1/2", "0", "zeta6", "2/3 - zeta6"]  # the slot action runs on values
    for texts in (symbolic, constant):
        for m in range(1, dim + 2):
            for _ in range(3):
                form = Tensor((dim,) * d, [parse_poly(rng.choice(texts), ("a", "b"))
                                           for _ in range(dim ** d)], ("a", "b"))
                vecs = [[Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(dim)]
                        for _ in range(m)]
                got, want = gramm_tensor(form, vecs), reference_gramm_tensor(form, vecs)
                assert got.to_json() == want.to_json()


def test_gramm_tensor_of_constants_maps_every_slot_on_values(monkeypatch):
    # no slot wraps the values in polynomials; each entry is wrapped once, when read
    form = rand_tensor(random.Random(43), (3, 3, 3))
    vecs = [[1, Fraction(1, 2), -2], [0, 3, 1]]
    built, constant = [], MultiPoly.constant
    monkeypatch.setattr(MultiPoly, "constant",
                        staticmethod(lambda v, vs=(): built.append(v) or constant(v, vs)))
    got = gramm_tensor(form, vecs)
    assert not built and not any(type(x) is MultiPoly for x in got._items)
    assert got.to_json() and len(built) == 8
    assert got.to_json() == reference_gramm_tensor(form, vecs).to_json()


# -- gramm forms ---------------------------------------------------------------------------


def test_gramm_form_orthonormal_pair():
    form = const_tensor((2, 2), [1, 0, 0, 1])
    v = gramm_form(form, [[1, 0], [0, 1]])
    assert v.base == 1
    assert v.exponent == Fraction(1, 2)


def test_gramm_form_dependent_tuple():
    form = const_tensor((2, 2), [1, 2, 3, 4])
    v = gramm_form(form, [[1, 2], [2, 4]])
    assert v.base.is_zero()


def test_skew_gramm_of_fewer_vectors_than_slots_is_a_zero_base():
    # as for gramm_form; the component index is still checked
    form = Tensor((2, 2), [1, 2, 3, 4], ("a",))
    for k in (0, 1):
        value = skew_gramm(form, [[1, 2]], k)
        assert value == gramm_form(form, [[1, 2]]) and value.base.is_zero()
        assert value.base.vars == ("a",) and value.exponent == Fraction(1, 2)
    with pytest.raises(DomainError, match="component index must satisfy 0 <= k < 2, got 2"):
        skew_gramm(form, [[1, 2]], 2)


def test_gramm_forms_check_their_vectors_once(monkeypatch):
    calls, check = [], gramm._vectors
    monkeypatch.setattr(gramm, "_vectors", lambda *a: calls.append(a) or check(*a))
    form = const_tensor((2, 2), [1, 2, 3, 4])
    assert gramm_form(form, [[1, 0], [0, 1]]).base == -2
    assert skew_gramm(form, [[1, 0], [0, 1]], 1).base == Fraction(1, 4)
    assert len(calls) == 2


def test_gramm_tensor_takes_rational_vectors_only():
    form = Tensor((2, 2), [1, 2, 3, 4])
    got = gramm_tensor(form, [[True, Fraction(4, 2)], [Fraction(1, 2), 0]])
    assert got._items == gramm_tensor(form, [[1, 2], [Fraction(1, 2), 0]])._items
    assert got._items == [27, Fraction(7, 2), Fraction(5, 2), Fraction(1, 4)]
    for bad in (0.5, zeta(6), "1", MultiPoly.constant(1)):
        with pytest.raises(TypeError, match="not a rational scalar"):
            gramm_tensor(form, [[1, bad]])


def test_gramm_checks_the_vectors_before_a_zero_base():
    form = Tensor((3, 3), range(1, 10))
    for gramm in (gramm_form, lambda f, vs: skew_gramm(f, vs, 0)):
        with pytest.raises(DomainError, match="vectors must have dimension 3"):
            gramm(form, [[1, 2]])
        with pytest.raises(TypeError, match="not a rational scalar"):
            gramm(form, [["a", "b", "c"]])
        with pytest.raises(DomainError, match="need at least one vector"):
            gramm(form, [])
        assert gramm(form, [[1, 2, 3]]).base.is_zero()
    assert skew_gramm(Tensor((2, 2), [1, 2, 3, 4]), [[1, 2]], 0).base.is_zero()


def test_gramm_form_fewer_vectors_than_slots():
    rng = random.Random(101)
    form = rand_tensor(rng, (2, 2, 2))
    v = gramm_form(form, [[1, 2], [3, 4]])
    assert v.base.is_zero()
    assert v.exponent == Fraction(2, 12)


def test_gramm_form_scaling_under_gl():
    rng = random.Random(103)
    form = rand_tensor(rng, (2, 2))
    vecs = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(3)]]
    g = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    detg = Fraction(1)
    detg = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    mixed = [[sum(g[i][k] * vecs[k][c] for k in range(2)) for c in range(2)]
             for i in range(2)]
    assert gramm_form(form, mixed).base == detg ** 2 * gramm_form(form, vecs).base


def test_gramm_form_unsupported_shape():
    form = Tensor.zeros((2, 2, 2))
    with pytest.raises(UnsupportedFormatError):
        gramm_form(form, [[1, 2]])


def test_gramm_exponent_follows_the_hyperdet_degree():
    # 2 vectors under a 4-linear form: a 2x2x2x2 hyperdeterminant, degree 24
    rng = random.Random(109)
    form = rand_tensor(rng, (2, 2, 2, 2), bound=3)
    vecs = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(-1)]]
    assert gramm_form(form, vecs).exponent == Fraction(1, 48)
    for k in (0, 5, 23):
        assert skew_gramm(form, vecs, k).exponent == Fraction(1, 48)
    assert gramm_form(rand_tensor(rng, (2, 2)), vecs).exponent == Fraction(1, 2)


@pytest.mark.parametrize("d, m", [(2, 7), (2, 8), (1, 2), (1, 3)])
def test_gramm_beyond_hyperdet_formats_is_domain_error(d, m):
    # 7x7 and 8x8 exceed the 6x6 determinant; m >= 2 vectors under a linear
    # form give an m-vector, which has no hyperdeterminant
    form = Tensor.zeros((m,) * d)
    vecs = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    with pytest.raises(DomainError):
        gramm_form(form, vecs)


# -- skew gramm forms ------------------------------------------------------------------------


def test_skew_gramm_symmetric_form_vanishes():
    form = const_tensor((2, 2), [2, 5, 5, 7])
    v = skew_gramm(form, [[1, 0], [0, 1]], 1)
    assert v.base.is_zero()


def test_skew_gramm_antisymmetric_determinant():
    form = const_tensor((2, 2), [1, 4, 2, 9])
    u = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    v = skew_gramm(form, u, 1)
    # antisymmetric part of [[1,4],[2,9]] is [[0,1],[-1,0]]; det = 1
    assert v.base == 1


def test_skew_gramm_k0_matches_symmetrised_form():
    rng = random.Random(107)
    form = rand_tensor(rng, (2, 2))
    sym = const_tensor((2, 2), [
        Fraction(form[0, 0].as_scalar()),
        (form[0, 1].as_scalar() + form[1, 0].as_scalar()) / 2,
        (form[0, 1].as_scalar() + form[1, 0].as_scalar()) / 2,
        Fraction(form[1, 1].as_scalar()),
    ])
    vecs = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    assert skew_gramm(form, vecs, 0).base == gramm_form(sym, vecs).base


def test_gramm_value_cross_powering():
    one = MultiPoly.constant(1)
    a = GrammValue(MultiPoly.constant(4), Fraction(1, 2))
    b = GrammValue(MultiPoly.constant(16), Fraction(1, 4))
    assert a.same_value(b)
    c = GrammValue(MultiPoly.constant(8), Fraction(1, 4))
    assert not a.same_value(c)
    assert GrammValue(one, Fraction(1, 2)).same_value(GrammValue(one, Fraction(1, 6)))


def test_gramm_value_is_a_named_tuple():
    base, exponent = MultiPoly.constant(4), Fraction(1, 2)
    a, b = GrammValue(base, exponent), GrammValue(MultiPoly.constant(4), Fraction(2, 4))
    assert (a.base, a.exponent) == tuple(a) == (base, exponent)
    assert a == b
    # the hash is that of the pair: none while MultiPoly is unhashable
    for value in (a, (base, exponent)):
        with pytest.raises(TypeError):
            hash(value)
    assert hash(GrammValue(4, Fraction(1, 2))) == hash(GrammValue(4, Fraction(2, 4))) == hash(
        (4, Fraction(1, 2)))
    assert repr(a) == "GrammValue(base=4, exponent=1/2)"
    c = a._replace(base=MultiPoly.constant(16), exponent=Fraction(1, 4))
    assert type(c) is GrammValue and c != a and c.same_value(a)
    assert a == GrammValue(base, exponent)  # _replace left a as it was
