"""Simultaneous substitution: the independent oracle for GL actions on forms
and for ``MultiPoly.dehomogenize``, which only re-keys terms."""

from hyperforms.errors import DomainError
from hyperforms.poly import COEFF_TYPES, MultiPoly


def subs(p: MultiPoly, assignment: dict) -> MultiPoly:
    """Substitute scalars or polynomials for variables of ``p``, all at once;
    the result keeps the variables of ``p`` that are not substituted."""
    for v in assignment:
        if v not in p.vars:
            raise DomainError(f"unknown variable {v!r}; have {p.vars}")
    if not assignment:
        return p
    values = {v: MultiPoly.constant(val) if isinstance(val, COEFF_TYPES) else val
              for v, val in assignment.items()}
    keep = tuple(v for v in p.vars if v not in values)
    result = MultiPoly.zero(keep)
    for e, c in p.terms.items():
        piece = MultiPoly(keep, {tuple(x for v, x in zip(p.vars, e) if v in keep): c})
        for v, x in zip(p.vars, e):
            if x and v in values:
                piece = piece * values[v] ** x
        result = result + piece
    return result
