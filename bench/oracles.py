"""Independent answers for the closed-loop workloads, for checking outside
the timed region.

sympy supplies discriminants, resultants and determinants; it is imported
only here, never by the library.  The 2x2x2x2 family (hyperdet, the
(1,1,1,1) hyperhessian and the cubic-pair hyperresultant) is checked
through sympy's generic quartic discriminant of the pencil's 2x2x2
hyperdeterminant, expanded once per run and evaluated in exact integers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

import sympy

from inputs import XY, form_text

X = sympy.Symbol("x")


def _cayley(a):
    """Cayley's degree-4 hyperdeterminant of a 2x2x2 array a[i][j][k]."""
    sq = (a[0][0][0] ** 2 * a[1][1][1] ** 2 + a[0][0][1] ** 2 * a[1][1][0] ** 2
          + a[0][1][0] ** 2 * a[1][0][1] ** 2 + a[1][0][0] ** 2 * a[0][1][1] ** 2)
    pairs = (a[0][0][0] * a[1][1][1] * (a[0][0][1] * a[1][1][0] + a[0][1][0] * a[1][0][1]
                                        + a[1][0][0] * a[0][1][1])
             + a[0][0][1] * a[1][1][0] * (a[0][1][0] * a[1][0][1] + a[1][0][0] * a[0][1][1])
             + a[0][1][0] * a[1][0][1] * a[1][0][0] * a[0][1][1])
    diag = (a[0][0][0] * a[0][1][1] * a[1][0][1] * a[1][1][0]
            + a[1][0][0] * a[0][1][0] * a[0][0][1] * a[1][1][1])
    return sq - 2 * pairs + 4 * diag


def _poly(cs):
    return sympy.Poly(cs, X)


def _disc(cs) -> int:
    return int(sympy.discriminant(_poly(cs)))


def _res(f, g) -> int:
    return int(sympy.resultant(_poly(f), _poly(g)))


def _det(rows) -> Fraction:
    return Fraction(str(sympy.Matrix(rows).det()))


def _polarised(cs) -> list[int]:
    """Row-major 2^d tensor of the raw d-th partials of a binary form of
    degree d with coefficient list cs; an index picks y in sum(idx) slots."""
    d = len(cs) - 1
    return [factorial(d - sum(idx)) * factorial(sum(idx)) * cs[sum(idx)]
            for idx in itertools.product((0, 1), repeat=d)]


class Oracle:
    def __init__(self, hf):
        self.hf = hf
        c = sympy.symbols("c0:5")
        disc4 = sympy.discriminant(sum(c[i] * X ** (4 - i) for i in range(5)), X)
        self._disc4 = sympy.lambdify(c, sympy.expand(disc4), modules=[])
        a = sympy.symbols("a0:16")
        u0, u1 = sympy.symbols("u0 u1")
        pencil = [[[a[4 * i + 2 * j + k] * u0 + a[8 + 4 * i + 2 * j + k] * u1
                    for k in range(2)] for j in range(2)] for i in range(2)]
        quartic = sympy.Poly(sympy.expand(_cayley(pencil)), u0, u1)
        self._pencil = [sympy.lambdify(a, quartic.coeff_monomial(u0 ** (4 - i) * u1 ** i),
                                       modules=[]) for i in range(5)]

    def hyperdet_2222(self, entries) -> int:
        """Row-major 16 entries; the pencil runs along the last axis."""
        moved = entries[0::2] + entries[1::2]  # last axis first, as the symbols expect
        return self._disc4(*(p(*moved) for p in self._pencil))

    @staticmethod
    def hyperdet_223(kind: str, e) -> Fraction:
        """Determinant of the Hessian of the pencil's 2x2 determinant, the
        2x2x3 tensor first brought to axis order (2, 2, 3)."""
        if kind == "hd223":
            t = lambda a, b, c: e[6 * a + 3 * b + c]
        elif kind == "hd232":
            t = lambda a, b, c: e[6 * a + 2 * c + b]
        else:
            t = lambda a, b, c: e[4 * c + 2 * a + b]
        hess = [[t(0, 0, c) * t(1, 1, d) + t(0, 0, d) * t(1, 1, c)
                 - t(0, 1, c) * t(1, 0, d) - t(0, 1, d) * t(1, 0, c)
                 for d in range(3)] for c in range(3)]
        return _det(hess)

    def expected(self, kind: str, data: tuple):
        """The exact result for one generated input (a Fraction, or a
        (base, exponent) pair for Gramm values)."""
        if kind == "hd222":
            return self.hf.cayley_hyperdet_222(self.hf.Tensor((2, 2, 2), data[0])).as_scalar()
        if kind in ("hd223", "hd232", "hd322"):
            return self.hyperdet_223(kind, data[0])
        if kind == "hd2222":
            return self.hyperdet_2222(data[0])
        if kind in ("disc3", "disc4"):
            return _disc(data[0])
        if kind == "hh111":
            return -48 * _disc(data[0])
        if kind == "hh1111":
            return self.hyperdet_2222(_polarised(data[0]))
        if kind == "hr22":
            return 16 * _res(*data)
        if kind == "hr222":
            return 8 * _det([[2 * f[0], f[1], f[2]] for f in data]) ** 2
        if kind == "hr33":
            tensors = [_polarised(f) for f in data]
            return self.hyperdet_2222([x for pair in zip(*tensors) for x in pair])
        if kind == "res44":
            return _res(*data)
        if kind == "det6":
            return _det([data[0][6 * i:6 * i + 6] for i in range(6)])
        if kind in ("gramm33", "sg33"):
            v = sympy.Matrix(3, 3, data[1])
            g = v * sympy.Matrix(3, 3, data[0]) * v.T
            if kind == "sg33":
                g = (g + g.T) / 2 if data[2] == 0 else (g - g.T) / 2
            return Fraction(str(g.det())), Fraction(1, 2)
        raise KeyError(kind)

    def check(self, kind: str, data: tuple, payload: str) -> str | None:
        """None when the payload is the exact answer, else a description."""
        if payload == "ok":
            return None
        if payload.startswith("FAIL"):
            return payload
        want = self.expected(kind, data)
        if isinstance(want, tuple):
            base, exponent = payload.split("|")
            got = (Fraction(base), Fraction(exponent))
        else:
            got = Fraction(payload)
        return None if got == want else f"{kind}{data}: got {payload}, expected {want}"


def cli_expected(hf, kind: str, data: tuple, stdin: str | None) -> str:
    """What `python -m hyperforms` should print, computed with the library."""
    if kind in ("disc", "resultant", "hyperresultant", "polarize", "hankel"):
        forms = [hf.parse_poly(form_text(cs), XY) for cs in data]
    if kind == "disc":
        out = hf.binary_form_disc(forms[0], XY)
    elif kind == "resultant":
        out = hf.sylvester_resultant(forms[0], forms[1], XY)
    elif kind == "hyperresultant":
        out = hf.hyperresultant(forms, XY)
    elif kind == "polarize":
        out = hf.polarize(forms[0], (1, 1, 1), XY).to_json()
    elif kind == "hankel":
        out = hf.hankel_quartic(forms[0], XY)
    elif kind == "hyperdet":
        out = hf.hyperdet(hf.Tensor.from_json(stdin))
    elif kind == "project":
        out = hf.project_k(hf.Tensor.from_json(stdin), data[1]).to_json()
    elif kind == "gramm":
        v = data[1]
        value = hf.gramm_form(hf.Tensor.from_json(stdin), [v[0:3], v[3:6], v[6:9]])
        out = f"base = {value.base}\nexponent = {value.exponent}"
    else:
        raise KeyError(kind)
    return f"{out}\n"
