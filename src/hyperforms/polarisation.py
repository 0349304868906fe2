"""Polarisation forms of homogeneous polynomials and their discriminants.

``polarize`` maps a degree-k form to the tensor of its raw iterated partial
derivatives indexed by degree-k_i multi-indices (no factorial normalisation,
so the classical coefficient tables are reproduced literally); each distinct
total multi-index costs one pass over the form's terms (``MultiPoly.derivative``).
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
from .parser import MAX_EXPONENT
from .poly import MultiPoly, form_vars, lower, merge_vars
from .tensor import Tensor, check_shape, multi_indices


@functools.lru_cache(maxsize=64)
def _layout(n: int, key: tuple[int, ...]):
    """Shape and row-major total multi-indices of a polarisation by ``key`` in n variables."""
    shape = check_shape(math.comb(n + km - 1, km) for km in key)  # multi-indices per slot
    return shape, tuple(tuple(map(sum, zip(*combo)))
                        for combo in itertools.product(*(multi_indices(n, km) for km in key)))


def _derivatives(f: MultiPoly, geo, alphas) -> dict:
    """The partial of ``f`` for each distinct multi-index over ``geo`` as an item, one pass each."""
    return {alpha: lower(f.derivative(geo, alpha)) for alpha in set(alphas)}


def _system(forms, geo):
    # the forms on variables covering geo and their common degree, one scan each
    forms, degs = [f.extend_vars(geo) for f in forms], set()
    for f in forms:
        if (d := f.homogeneous_degree_in(geo)) < 0:
            raise DomainError("the zero polynomial has no well-defined form degree")
        degs.add(d)
    if len(degs) != 1:
        raise DomainError(f"system mixes degrees {sorted(degs)}")
    return forms, degs.pop()


def _jacobi(forms, key, geo, k: int) -> Tensor:
    # forms of degree k on variables covering geo
    if (total := sum(key)) > k:
        raise DomainError(f"key weight {total} exceeds form degree {k}")
    shape, alphas = _layout(len(geo), key)
    shape = check_shape(shape + (len(forms),))
    vs = merge_vars(f.vars for f in forms)
    derivs = [_derivatives(f.with_vars(vs), geo, alphas) for f in forms]
    return Tensor._built(shape, [d[alpha] for alpha in alphas for d in derivs], vs)


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
    t = jacobi_form([f], _key(key), geo_vars)
    return Tensor._built(t.shape[:-1], t._items, t.vars)


def hyperhessian(f: MultiPoly, key, geo_vars) -> MultiPoly:
    """Hyperdeterminant of the polarisation tensor of ``f``."""
    return hyperdet(polarize(f, key, geo_vars))


def jacobi_form(forms, key, geo_vars) -> Tensor:
    """Stacked polarisations of a system of equal-degree forms.

    The system axis is the last tensor axis; entry (J_1, ..., J_d, j) is the
    (J_1, ..., J_d) entry of the polarisation of the j-th form.
    """
    forms = list(forms)
    if not forms:
        raise DomainError("empty system of forms")
    geo = form_vars(geo_vars)
    forms, k = _system(forms, geo)
    return _jacobi(forms, _key(key), geo, k)


def hyperresultant(forms, geo_vars) -> MultiPoly:
    """Hyperdeterminant of the full first-order Jacobi form of a system.

    m forms of degree k in n variables give the format n x ... x n (k times) x m,
    so this answers wherever ``hyperdet`` does: n linear forms in n <= 6
    variables, two or three binary quadratics and two binary cubics.
    """
    forms = list(forms)
    geo = form_vars(geo_vars)
    if not forms:
        raise DomainError("empty system of forms")
    forms, k = _system(forms, geo)
    hyperdet_degree((len(geo),) * k + (len(forms),))  # refuse before any derivative
    return hyperdet(_jacobi(forms, (1,) * k, geo, k))


def jacobi_sequence(f: MultiPoly, steps: int, geo_vars) -> Tensor:
    """Iterated gradient: the rank-r tensor of all order-r partials."""
    steps = operator.index(steps)
    if not 0 <= steps <= MAX_EXPONENT:  # the parser's degree bound, before (n,) * steps
        raise DomainError(f"steps must be between 0 and {MAX_EXPONENT}, got {steps}")
    geo = form_vars(geo_vars)
    f = f.extend_vars(geo)
    n = len(geo)
    shape = check_shape((n,) * steps)
    alphas = [tuple(map(idx.count, range(n))) for idx in itertools.product(range(n), repeat=steps)]
    derivs = _derivatives(f, geo, alphas)
    return Tensor._built(shape, [derivs[alpha] for alpha in alphas], f.vars)
