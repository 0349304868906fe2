"""The contraction route to the Schlaefli step: the independent oracle for
``hyperdet`` on the multidimensional formats.

It builds the pencil's form in fresh variables, where ``hyperdet`` reads the
same form off a few evaluations: contract the longest axis (ties to the
highest index) with fresh variables u, take the hyperdeterminant of that
pencil, then the discriminant of the form it gives in u.
"""

from hyperforms.hyperdet import binary_form_disc, det_square, hyperdet_degree, ternary_quadratic_disc
from hyperforms.tensor import fresh_names


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
