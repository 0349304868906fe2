"""Polarisation forms of homogeneous polynomials and their discriminants.

``polarize`` maps a degree-k form to the tensor of its raw iterated partial
derivatives indexed by degree-k_i multi-indices (no factorial normalisation,
so the classical coefficient tables are reproduced literally).  Each form is read
once into a table of its coefficients c_g by exponent g (``MultiPoly._table``), which
also checks its degree.  At full order (the key's weight is the degree) the entry by
alpha is alpha! * c_alpha, one lookup; below it each distinct total multi-index costs
one pass over the form's terms (``MultiPoly.derivative``).
It is the Jacobi form of a one-form system; hyperhessians, hyperresultants and
the iterated-gradient sequence are thin layers over the same step.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .errors import DomainError
from .hyperdet import hyperdet, hyperdet_degree
from .poly import MAX_EXPONENT, MultiPoly, form_vars, lower, merge_vars
from .scalars import canonical
from .tensor import Tensor, check_shape, multi_indices


@functools.lru_cache(maxsize=64)
def _layout(n: int, key: tuple[int, ...]):
    """Shape, row-major total multi-indices and each one's alpha! of a polarisation by ``key``."""
    shape = check_shape(math.comb(n + km - 1, km) for km in key)  # multi-indices per slot
    alphas = tuple(tuple(map(sum, zip((0,) * n, *combo)))
                   for combo in itertools.product(*(multi_indices(n, km) for km in key)))
    return shape, alphas, tuple(math.prod(map(math.factorial, a)) for a in alphas)


def _partials(f, table, geo, vs, alphas, weights, full: bool) -> list:
    """The partial of ``f`` by each alpha over ``geo`` as an item on ``vs``: at ``full`` order
    alpha! * c_alpha read off the form's table, else one pass over its terms per distinct alpha."""
    if full:
        return [canonical(c * w) if type(c := table.get(a, 0)) is not MultiPoly
                else (c * w).with_vars(vs) for a, w in zip(alphas, weights)]
    f = f.with_vars(vs)
    derivs = {a: lower(f.derivative(geo, a)) for a in set(alphas)}
    return [derivs[a] for a in alphas]


def _system(forms, geo):
    # the forms on variables covering geo, one table each, their variables and common degree
    if not (forms := [f.extend_vars(geo) for f in forms]):
        raise DomainError("empty system of forms")
    system = []
    for f in forms:
        if not (table := f._table(geo))[2]:
            raise DomainError("the zero polynomial has no well-defined form degree")
        system.append((f, *table))
    if len(degs := set().union(*(s[3] for s in system))) != 1:
        raise DomainError(f"system mixes degrees {sorted(degs)}")
    return system, merge_vars(f.vars for f in forms), degs.pop()


def _jacobi(system, key, geo) -> Tensor:
    forms, vs, k = system
    if (total := sum(key)) > k:
        raise DomainError(f"key weight {total} exceeds form degree {k}")
    shape, alphas, weights = _layout(len(geo), key)
    cols = [_partials(f, table, geo, vs, alphas, weights, total == k) for f, table, _, _ in forms]
    items = [x for row in zip(*cols) for x in row]  # entry-major, the system axis last
    return Tensor._built(check_shape(shape + (len(cols),)), items, vs)


def _key(key) -> tuple[int, ...]:
    key = tuple(map(operator.index, key))
    if not key or any(k < 1 for k in key):
        raise DomainError(f"polarisation key must be positive integers, got {key}")
    return key


def polarize(f: MultiPoly, key, geo_vars) -> Tensor:
    """Tensor of iterated partials of ``f`` indexed by one degree-k_i
    multi-index per slot: the Jacobi form of the system ``[f]`` without its
    system axis.

    Every entry is homogeneous of degree k - (k_1 + ... + k_d) in the
    geometric variables, and slots with equal k_i may be exchanged freely.
    """
    key, geo = _key(key), form_vars(geo_vars)
    t = _jacobi(_system([f], geo), key, geo)
    return Tensor._built(t.shape[:-1], t._items, t.vars)


def hyperhessian(f: MultiPoly, key, geo_vars) -> MultiPoly:
    """Hyperdeterminant of the polarisation tensor of ``f``."""
    return hyperdet(polarize(f, key, geo_vars))


def jacobi_form(forms, key, geo_vars) -> Tensor:
    """Stacked polarisations of a system of equal-degree forms.

    The system axis is the last tensor axis; entry (J_1, ..., J_d, j) is the
    (J_1, ..., J_d) entry of the polarisation of the j-th form.
    """
    geo = form_vars(geo_vars)
    return _jacobi(_system(forms, geo), _key(key), geo)


def hyperresultant(forms, geo_vars) -> MultiPoly:
    """Hyperdeterminant of the full first-order Jacobi form of a system.

    m forms of degree k in n variables give the format n x ... x n (k times) x m,
    so this answers wherever ``hyperdet`` does: n linear forms in n <= 6
    variables, two or three binary quadratics and two binary cubics.
    """
    geo = form_vars(geo_vars)
    forms, _, k = system = _system(forms, geo)
    hyperdet_degree((len(geo),) * k + (len(forms),))  # refuse before any partial
    return hyperdet(_jacobi(system, (1,) * k, geo))


def jacobi_sequence(f: MultiPoly, steps: int, geo_vars) -> Tensor:
    """Iterated gradient: the rank-r tensor of all order-r partials."""
    steps = operator.index(steps)
    if not 0 <= steps <= MAX_EXPONENT:  # the parser's degree bound, before (n,) * steps
        raise DomainError(f"steps must be between 0 and {MAX_EXPONENT}, got {steps}")
    geo = form_vars(geo_vars)
    f = f.extend_vars(geo)
    table, _, degs = f._table(geo, homogeneous=False)  # terms may have several degrees
    shape, alphas, weights = _layout(len(geo), (1,) * steps)
    full = max(degs, default=0) <= steps  # terms of lower degree have no partial of this order
    return Tensor._built(shape, _partials(f, table, geo, f.vars, alphas, weights, full), f.vars)
