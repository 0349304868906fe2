"""Iterated one-variable partial derivatives: the independent oracle for
``MultiPoly.derivative``, which takes every order in one pass over the terms."""

from hyperforms.poly import MultiPoly
from hyperforms.scalars import canonical


def partial(p: MultiPoly, name: str, order: int = 1) -> MultiPoly:
    """Differentiate ``p`` by ``name`` one order at a time, multiplying each
    coefficient by the exponent it lowers."""
    i = p.vars.index(name)
    terms = p.terms
    for _ in range(order):
        terms = {e[:i] + (e[i] - 1,) + e[i + 1:]: canonical(c * e[i])
                 for e, c in terms.items() if e[i]}
    return MultiPoly(p.vars, terms)


def derivative(p: MultiPoly, names, orders) -> MultiPoly:
    """The mixed partial of ``p``, one variable and one order at a time."""
    for name, order in zip(names, orders, strict=True):
        p = partial(p, name, order)
    return p
