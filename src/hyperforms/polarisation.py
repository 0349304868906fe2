"""Polarisation forms of homogeneous polynomials and their discriminants.

``polarize`` maps a degree-k form to the tensor of its raw iterated partial
derivatives indexed by degree-k_i multi-indices (no factorial normalisation,
so the classical coefficient tables are reproduced literally).  Hyperhessians,
Jacobi forms of systems, hyperresultants and the iterated-gradient sequence
are all thin layers over it.
"""

from __future__ import annotations

import itertools

from .errors import DomainError, UnsupportedFormatError
from .hyperdet import hyperdet
from .poly import MultiPoly
from .tensor import MultiIndexSet, Tensor


def _form_degree(f: MultiPoly, geo) -> int:
    d = f.homogeneous_degree_in(geo)
    if d < 0:
        raise DomainError("the zero polynomial has no well-defined form degree")
    return d


class _DerivativeCache:
    """Shares iterated partials among tensor entries with equal total index."""

    def __init__(self, f: MultiPoly, geo):
        self.f = f
        self.geo = tuple(geo)
        self.cache: dict[tuple[int, ...], MultiPoly] = {}

    def get(self, alpha: tuple[int, ...]) -> MultiPoly:
        p = self.cache.get(alpha)
        if p is None:
            p = self.f
            for v, order in zip(self.geo, alpha):
                if order:
                    p = p.partial(v, order)
            self.cache[alpha] = p
        return p


def polarize(f: MultiPoly, key, geo_vars) -> Tensor:
    """Tensor of iterated partials of ``f`` indexed by one degree-k_i
    multi-index per slot.

    Every entry is homogeneous of degree k - (k_1 + ... + k_d) in the
    geometric variables, and slots with equal k_i may be exchanged freely.
    """
    key = tuple(int(k) for k in key)
    if not key or any(k < 1 for k in key):
        raise DomainError(f"polarisation key must be positive integers, got {key}")
    geo = tuple(geo_vars)
    f = f.extend_vars(geo)
    k = _form_degree(f, geo)
    total = sum(key)
    if total > k:
        raise DomainError(f"key weight {total} exceeds form degree {k}")
    sets = [MultiIndexSet(len(geo), km) for km in key]
    shape = tuple(len(s) for s in sets)
    derivs = _DerivativeCache(f, geo)
    entries = []
    for combo in itertools.product(*(s.indices for s in sets)):
        alpha = tuple(sum(parts) for parts in zip(*combo))
        entries.append(derivs.get(alpha))
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
    geo = tuple(geo_vars)
    _system_degree(forms, geo)
    pols = [polarize(f, key, geo) for f in forms]
    base = pols[0].shape
    return Tensor.from_function(base + (len(forms),), lambda idx: pols[idx[-1]][idx[:-1]])


_HYPERRESULTANT_FORMATS = {(2, 2, 2), (2, 3, 2), (2, 2, 3)}  # (nvars, m, degree)


def hyperresultant(forms, geo_vars) -> MultiPoly:
    """Hyperdeterminant of the full first-order Jacobi form of a system.

    Implemented for binary systems whose Jacobi form lands on a supported
    hyperdeterminant format: two or three quadratics (2x2x2, 2x2x3) and two
    cubics (2x2x2x2).
    """
    forms = list(forms)
    geo = tuple(geo_vars)
    if not forms:
        raise DomainError("empty system of forms")
    k = _system_degree(forms, geo)
    m = len(forms)
    sig = (len(geo), m, k)
    if sig not in _HYPERRESULTANT_FORMATS:
        shape = "x".join([str(len(geo))] * k + [str(m)])
        raise UnsupportedFormatError(
            f"hyperresultant of {m} forms of degree {k} in {len(geo)} variables "
            f"needs format {shape}, which is unsupported")
    return hyperdet(jacobi_form(forms, (1,) * k, geo))


def jacobi_sequence(f: MultiPoly, steps: int, geo_vars) -> Tensor:
    """Iterated gradient: the rank-r tensor of all order-r partials."""
    if steps < 0:
        raise DomainError("steps must be >= 0")
    geo = tuple(geo_vars)
    f = f.extend_vars(geo)
    n = len(geo)
    derivs = _DerivativeCache(f, geo)
    return Tensor.from_function(
        (n,) * steps, lambda idx: derivs.get(tuple(idx.count(i) for i in range(n))), f.vars)
