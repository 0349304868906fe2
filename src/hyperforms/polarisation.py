"""Polarisation forms of homogeneous polynomials and their discriminants.

``polarize`` maps a degree-k form to the tensor of its raw iterated partial
derivatives indexed by degree-k_i multi-indices (no factorial normalisation,
so the classical coefficient tables are reproduced literally).  Hyperhessians,
Jacobi forms of systems, hyperresultants and the iterated-gradient sequence
are all thin layers over it.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import DomainError
from .hyperdet import hyperdet, hyperdet_degree
from .poly import MultiPoly, form_vars
from .tensor import Tensor, check_shape, multi_indices


def _form_degree(f: MultiPoly, geo) -> int:
    d = f.homogeneous_degree_in(geo)
    if d < 0:
        raise DomainError("the zero polynomial has no well-defined form degree")
    return d


def _derivatives(f: MultiPoly, geo):
    """The iterated partial of ``f`` for a multi-index over ``geo``, shared
    among tensor entries with equal total index."""
    @functools.lru_cache(maxsize=None)
    def partial(alpha: tuple[int, ...]) -> MultiPoly:
        p = f
        for v, order in zip(geo, alpha):
            if order:
                p = p.partial(v, order)
        return p
    return partial


def polarize(f: MultiPoly, key, geo_vars) -> Tensor:
    """Tensor of iterated partials of ``f`` indexed by one degree-k_i
    multi-index per slot.

    Every entry is homogeneous of degree k - (k_1 + ... + k_d) in the
    geometric variables, and slots with equal k_i may be exchanged freely.
    """
    key = tuple(int(k) for k in key)
    if not key or any(k < 1 for k in key):
        raise DomainError(f"polarisation key must be positive integers, got {key}")
    geo = form_vars(geo_vars)
    f = f.extend_vars(geo)
    k = _form_degree(f, geo)
    total = sum(key)
    if total > k:
        raise DomainError(f"key weight {total} exceeds form degree {k}")
    # a slot of weight km has C(n + km - 1, km) multi-indices in n variables
    shape = check_shape(math.comb(len(geo) + km - 1, km) for km in key)
    derivs = _derivatives(f, geo)
    entries = []
    for combo in itertools.product(*(multi_indices(len(geo), km) for km in key)):
        alpha = tuple(sum(parts) for parts in zip(*combo))
        entries.append(derivs(alpha))
    return Tensor(shape, entries, f.vars)


def hyperhessian(f: MultiPoly, key, geo_vars) -> MultiPoly:
    """Hyperdeterminant of the polarisation tensor of ``f``."""
    return hyperdet(polarize(f, key, geo_vars))


def _system_degree(forms, geo) -> int:
    degs = set()
    for f in forms:
        degs.add(_form_degree(f.extend_vars(geo), geo))
    if len(degs) != 1:
        raise DomainError(f"system mixes degrees {sorted(degs)}")
    return degs.pop()


def jacobi_form(forms, key, geo_vars) -> Tensor:
    """Stacked polarisations of a system of equal-degree forms.

    The system axis is the last tensor axis; entry (J_1, ..., J_d, j) is the
    (J_1, ..., J_d) entry of the polarisation of the j-th form.
    """
    forms = list(forms)
    if not forms:
        raise DomainError("empty system of forms")
    geo = form_vars(geo_vars)
    _system_degree(forms, geo)
    pols = [polarize(f, key, geo) for f in forms]
    base = pols[0].shape
    return Tensor.from_function(base + (len(forms),), lambda idx: pols[idx[-1]][idx[:-1]])


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
    k = _system_degree(forms, geo)
    hyperdet_degree((len(geo),) * k + (len(forms),))  # refuse before any derivative
    return hyperdet(jacobi_form(forms, (1,) * k, geo))


_MAX_STEPS = 64  # the parser's degree bound


def jacobi_sequence(f: MultiPoly, steps: int, geo_vars) -> Tensor:
    """Iterated gradient: the rank-r tensor of all order-r partials."""
    if not 0 <= steps <= _MAX_STEPS:  # before the shape (n,) * steps is built
        raise DomainError(f"steps must be between 0 and {_MAX_STEPS}, got {steps}")
    geo = form_vars(geo_vars)
    f = f.extend_vars(geo)
    n = len(geo)
    derivs = _derivatives(f, geo)
    return Tensor.from_function(
        (n,) * steps, lambda idx: derivs(tuple(idx.count(i) for i in range(n))), f.vars)
