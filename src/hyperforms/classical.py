"""Classical companions: resultants of binary forms, the quartic Hankel and apolar
invariants, and the three-form Wronskian."""

from __future__ import annotations

from .errors import DomainError
from .hyperdet import _bounded_degree, _resultant, det_rows, det_square
from .poly import MultiPoly, binary_vars, lift, merge_vars
from .tensor import Tensor


def sylvester_resultant(f: MultiPoly, g: MultiPoly, xy=("x", "y")) -> MultiPoly:
    """Resultant of two binary forms of degrees m and n: the determinant of
    their max(m, n) x max(m, n) hybrid Bezout-Sylvester matrix, which equals
    that of the (m + n) x (m + n) Sylvester matrix.

    Vanishes exactly when the forms share a projective root; bihomogeneous
    of degree (deg g, deg f) in the coefficients.
    """
    if f.is_zero() or g.is_zero():
        raise DomainError("resultant of the zero polynomial is undefined")
    # one variable tuple with f's names first, though rows of g may come first
    merged = merge_vars((f.vars, g.vars))
    (avec, rest), (bvec, _) = [h.with_vars(merged)._binary_items(xy) for h in (f, g)]
    m = _bounded_degree("resultant", len(avec) - 1, 1)
    n = _bounded_degree("resultant", len(bvec) - 1, 1)
    res = _resultant(avec, bvec) if m >= n else _resultant(bvec, avec)
    res = -res if m < n and m * n % 2 else res  # Res(f, g) = (-1)^(mn) Res(g, f)
    return lift(res, rest)


def hankel_matrix(f: MultiPoly, xy=("x", "y")) -> Tensor:
    """The 3x3 catalecticant matrix of fourth partials of a binary quartic."""
    (c0, c1, c2, c3, c4), rest = f._binary_items(xy, 4)
    rows = [
        [24 * c0, 6 * c1, 4 * c2],
        [6 * c1, 4 * c2, 6 * c3],
        [4 * c2, 6 * c3, 24 * c4],
    ]
    return Tensor((3, 3), [p for row in rows for p in row], rest)


def hankel_quartic(f: MultiPoly, xy=("x", "y")) -> MultiPoly:
    """One eighth of the catalecticant determinant; degree 3 in the coefficients."""
    return det_square(hankel_matrix(f, xy)) / 8


def apolar_quartic(f: MultiPoly, xy=("x", "y")) -> MultiPoly:
    """The degree-2 invariant c22^2 - 3*c31*c13 + 12*c40*c04 of a quartic.

    The middle sign is forced: only this sign is a relative GL2 invariant
    (it is 12 times the classical I invariant in plain coefficients).
    """
    (c0, c1, c2, c3, c4), rest = f._binary_items(xy, 4)
    return lift(c2 * c2 - 3 * (c1 * c3) + 12 * (c0 * c4), rest)


def wronskian3(f1: MultiPoly, f2: MultiPoly, f3: MultiPoly, xy=("x", "y")) -> MultiPoly:
    """Wronskian of three equal-degree binary forms in the dehomogenised
    variable x/y; identically zero iff the forms are linearly dependent."""
    xy = binary_vars(xy)
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
