"""The Sylvester matrix: the independent oracle for the hybrid
Bezout-Sylvester matrix behind ``sylvester_resultant`` and
``binary_form_disc``."""

from fractions import Fraction

from hyperforms.hyperdet import det_rows
from hyperforms.poly import MultiPoly


def sylvester_rows(avec, bvec, m: int, n: int):
    """Sylvester matrix rows for coefficient vectors of degrees m and n:
    n shifted rows of the first vector, then m shifted rows of the second."""
    size = m + n
    zero = MultiPoly.zero()
    rows = []
    for shift in range(n):
        rows.append([zero] * shift + list(avec) + [zero] * (size - shift - m - 1))
    for shift in range(m):
        rows.append([zero] * shift + list(bvec) + [zero] * (size - shift - n - 1))
    return rows


def sylvester_disc(f, xy, d):
    """(-1)^(d(d-1)/2) * Res(df/dx, df/dy) / d^(d-2) for a binary form ``f``
    of formal degree ``d`` whose variables include ``xy``, on the Sylvester
    matrix: the independent oracle for the closed forms and the Bezout route."""
    x, y = xy
    avec = f.partial(x).binary_coefficients(xy, d - 1)
    bvec = f.partial(y).binary_coefficients(xy, d - 1)
    res = det_rows(sylvester_rows(avec, bvec, d - 1, d - 1))
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return (res * sign) / Fraction(d) ** (d - 2)
