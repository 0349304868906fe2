"""Oracles for the Schlaefli step of ``hyperdet`` on the multidimensional formats.

The contraction route builds the pencil's form in fresh variables, where
``hyperdet`` writes the same form from the mixed determinants of its 2x2
slices: contract the longest axis (ties to the highest index) with fresh
variables u, take the hyperdeterminant of that pencil, then the discriminant
of the form it gives in u.  The interpolation route reads the coefficients of
det(A + tB) off evaluations at t = 0..D.
"""

from hyperforms.hyperdet import binary_form_disc, det_square, hyperdet_degree, ternary_quadratic_disc
from hyperforms.scalars import exact_quotient


def fresh_names(avoid, count: int) -> tuple[str, ...]:
    """Deterministic variable names not colliding with ``avoid``."""
    taken = set(avoid)
    prefix = "u"
    while any(f"{prefix}{i}" in taken for i in range(count)):
        prefix = "_" + prefix
    return tuple(f"{prefix}{i}" for i in range(count))


def contraction_hyperdet(t):
    """Hyperdeterminant of a tensor on a supported format, by contraction."""
    if t.ndim == 2:
        return det_square(t)
    longest = max(range(t.ndim), key=lambda i: (t.shape[i], i))
    u = fresh_names(t.vars, t.shape[longest])
    pencil = t.contract_axis(longest, u)
    form = contraction_hyperdet(pencil)
    if len(u) == 3:
        return ternary_quadratic_disc(form, u)
    # the pencil is linear in u, so its hyperdeterminant has that degree in u
    return binary_form_disc(form, u, degree=hyperdet_degree(pencil.shape))


def pencil_by_interpolation(det, a, b, degree):
    """Coefficients of det(A + tB) in ascending powers of t, for slices ``a`` and
    ``b`` (row-major lists): read off t = 0..degree by Newton divided differences,
    each an exact quotient, then converted to monomials.  ``det`` takes a
    row-major slice."""
    c = [det([x + t * y for x, y in zip(a, b)]) for t in range(degree + 1)]
    for k in range(1, degree + 1):
        for i in range(degree, k - 1, -1):
            c[i] = exact_quotient(c[i] - c[i - 1], k)
    cs = [c[degree]]
    for k in range(degree - 1, -1, -1):  # cs(t) * (t - k) + c_k
        cs = [c[k] - k * cs[0]] + [cs[j - 1] - k * cs[j] for j in range(1, len(cs))] + [cs[-1]]
    return cs
