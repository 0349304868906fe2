"""The Sylvester matrix: the independent oracle for the hybrid
Bezout-Sylvester matrix behind ``sylvester_resultant`` and
``binary_form_disc``."""

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
