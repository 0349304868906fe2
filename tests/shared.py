"""Fixtures the test modules share: the binary variables, parsing in them, and
random binary forms and integer tensors drawn from a seeded ``random.Random``."""

import math
from fractions import Fraction

from hyperforms.parser import parse_poly
from hyperforms.poly import MultiPoly
from hyperforms.tensor import Tensor

XY = ("x", "y")


def P(text, variables=XY):
    return parse_poly(text, variables)


def const_tensor(shape, values):
    return Tensor(shape, [MultiPoly.constant(v) for v in values])


def rand_tensor(rng, shape, bound=9):
    return const_tensor(shape, [rng.randint(-bound, bound) for _ in range(math.prod(shape))])


def random_form(rng, degree, bound=9):
    while True:
        f = MultiPoly(XY, {(degree - i, i): Fraction(rng.randint(-bound, bound))
                           for i in range(degree + 1)})
        if not f.is_zero():
            return f
