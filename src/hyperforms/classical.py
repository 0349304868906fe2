"""Classical companions: Sylvester resultants, the quartic Hankel and apolar
invariants, and the three-form Wronskian."""

from __future__ import annotations

from .errors import DomainError
from .hyperdet import _MAX_DEGREE, _sylvester_rows, det_rows, det_square
from .poly import MultiPoly
from .tensor import Tensor


def sylvester_resultant(f: MultiPoly, g: MultiPoly, xy=("x", "y")) -> MultiPoly:
    """Determinant of the Sylvester matrix of two binary forms.

    Vanishes exactly when the forms share a projective root; bihomogeneous
    of degree (deg g, deg f) in the coefficients.
    """
    f = f.extend_vars(xy)
    g = g.extend_vars(xy)
    if f.is_zero() or g.is_zero():
        raise DomainError("resultant of the zero polynomial is undefined")
    m = f.homogeneous_degree_in(xy)
    n = g.homogeneous_degree_in(xy)
    if m < 1 or n < 1:
        raise DomainError(f"resultant needs degrees >= 1, got {m} and {n}")
    if max(m, n) > _MAX_DEGREE:
        raise DomainError(f"resultant limited to degree {_MAX_DEGREE}, got {m} and {n}")
    avec = f.binary_coefficients(xy, m)
    bvec = g.binary_coefficients(xy, n)
    return det_rows(_sylvester_rows(avec, bvec, m, n))


def _quartic_coefficients(f: MultiPoly, xy) -> list[MultiPoly]:
    f = f.extend_vars(xy)
    if f.homogeneous_degree_in(xy) not in (4, -1):  # zero form is a degenerate quartic
        raise DomainError(
            f"expected a binary quartic, got degree {f.homogeneous_degree_in(xy)}")
    return f.binary_coefficients(xy, 4)


def hankel_matrix(f: MultiPoly, xy=("x", "y")) -> Tensor:
    """The 3x3 catalecticant matrix of fourth partials of a binary quartic."""
    c0, c1, c2, c3, c4 = _quartic_coefficients(f, xy)
    rows = [
        [24 * c0, 6 * c1, 4 * c2],
        [6 * c1, 4 * c2, 6 * c3],
        [4 * c2, 6 * c3, 24 * c4],
    ]
    return Tensor((3, 3), [p for row in rows for p in row])


def hankel_quartic(f: MultiPoly, xy=("x", "y")) -> MultiPoly:
    """One eighth of the catalecticant determinant; degree 3 in the coefficients."""
    return det_square(hankel_matrix(f, xy)) / 8


def apolar_quartic(f: MultiPoly, xy=("x", "y")) -> MultiPoly:
    """The degree-2 invariant c22^2 - 3*c31*c13 + 12*c40*c04 of a quartic.

    The middle sign is forced: only this sign is a relative GL2 invariant
    (it is 12 times the classical I invariant in plain coefficients).
    """
    c0, c1, c2, c3, c4 = _quartic_coefficients(f, xy)
    return c2 * c2 - 3 * (c1 * c3) + 12 * (c0 * c4)


def wronskian3(f1: MultiPoly, f2: MultiPoly, f3: MultiPoly, xy=("x", "y")) -> MultiPoly:
    """Wronskian of three equal-degree binary forms in the dehomogenised
    variable x/y; identically zero iff the forms are linearly dependent."""
    x, y = xy
    forms = [f.extend_vars(xy) for f in (f1, f2, f3)]
    degs = {f.homogeneous_degree_in(xy) for f in forms if not f.is_zero()}
    if len(degs) > 1:
        raise DomainError(f"forms mix degrees {sorted(degs)}")
    rows = []
    for f in forms:
        p = f.dehomogenize(x, y)
        rows.append([p.partial(x, 2), p.partial(x), p])
    return det_rows(rows)
