"""Seeded verification suites that reproduce the package's identities and
pin every convention constant as an exact rational.

Each suite draws integer coefficients uniformly from [-R, R] (default R = 9),
resampling degenerate instances up to 1000 times, and checks its identities
exactly.  A ratio constant is recorded only when it is identical across all
trials; the first disagreement demotes the identity to a failure carrying
both witnesses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .classical import apolar_quartic, hankel_quartic, sylvester_resultant, wronskian3
from .errors import DomainError
from .gramm import gramm_form, project_k, projector_trace
from .hyperdet import binary_form_disc, cayley_hyperdet_222, det_rows, hyperdet
from .parser import parse_poly
from .poly import MultiPoly
from .polarisation import hyperhessian, hyperresultant
from .scalars import zeta
from .tensor import Tensor

XY = ("x", "y")


def factored_constant(q: Fraction) -> str:
    """Render a rational as sign*2^a*3^b*(p/q) with p, q coprime to 6."""
    if q == 0:
        return "0"
    sign = "-" if q < 0 else "+"
    num, den = abs(q).numerator, abs(q).denominator
    exps = []
    for p in (2, 3):
        e = 0
        while num % p == 0:
            num //= p
            e += 1
        while den % p == 0:
            den //= p
            e -= 1
        exps.append(e)
    return f"{sign}2^{exps[0]}*3^{exps[1]}*({num}/{den})"


def is_23_smooth(q: Fraction) -> bool:
    return factored_constant(q).endswith("(1/1)")


@dataclass
class IdentityRecord:
    id: str
    trials: int
    passed: bool
    constant: Fraction | None = None
    nominal: str | None = None
    counterexample: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "trials": self.trials,
            "pass": self.passed,
            "constant": None if self.constant is None else factored_constant(self.constant),
            "nominal": self.nominal,
            "counterexample": self.counterexample,
        }


@dataclass
class VerifyReport:
    suite: str
    seed: int
    coeff_range: int
    identities: list[IdentityRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.identities)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "suite": self.suite,
            "seed": self.seed,
            "range": self.coeff_range,
            "pass": self.passed,
            "identities": [r.to_json_dict() for r in self.identities],
        }

    def format_text(self) -> str:
        lines = [f"suite {self.suite} (seed {self.seed}, range {self.coeff_range})"]
        for r in self.identities:
            status = "PASS" if r.passed else "FAIL"
            extra = ""
            if r.constant is not None:
                extra += f" constant {factored_constant(r.constant)}"
            if r.nominal is not None:
                extra += f" (nominal {r.nominal})"
            lines.append(f"  [{status}] {r.id}: {r.trials} trials{extra}")
            if r.counterexample:
                lines.append(f"         counterexample: {r.counterexample}")
        return "\n".join(lines)


class _ConstantPin:
    """Calibrates a ratio on the first trial, then asserts it on the rest."""

    def __init__(self):
        self.value: Fraction | None = None
        self.witness: str | None = None

    def check(self, value: Fraction, witness: str) -> str | None:
        if self.value is None:
            self.value = value
            self.witness = witness
            return None
        if value != self.value:
            return f"{self.witness} -> {self.value}; {witness} -> {value}"
        return None


def _reject_degenerate(draw, what: str):
    """Resample until ``draw`` returns a non-None instance, capped at 1000."""
    for _ in range(1000):
        v = draw()
        if v is not None:
            return v
    raise DomainError(f"rejection sampling exhausted 1000 attempts for {what}")


def _random_form(rng, degree: int, bound: int) -> MultiPoly:
    def draw():
        f = MultiPoly(XY, {(degree - i, i): Fraction(rng.randint(-bound, bound))
                           for i in range(degree + 1)})
        return None if f.is_zero() else f
    return _reject_degenerate(draw, f"degree-{degree} form")


def _random_tensor(rng, shape, bound: int) -> Tensor:
    return Tensor.from_function(shape, lambda _: rng.randint(-bound, bound))


def _random_matrix(rng, n: int, bound: int):
    """An invertible matrix of Fractions and its determinant."""
    def draw():
        g = [[Fraction(rng.randint(-bound, bound)) for _ in range(n)] for _ in range(n)]
        det = det_rows([[MultiPoly.constant(c) for c in row] for row in g]).as_scalar()
        return (g, det) if det else None
    return _reject_degenerate(draw, f"invertible {n}x{n} matrix")


def _for_all(rec: IdentityRecord, trials: int, check) -> IdentityRecord:
    """Run ``check`` up to ``trials`` times; the first counterexample string
    it returns fails ``rec`` and ends the loop."""
    for _ in range(trials):
        bad = check()
        if bad:
            rec.passed = False
            rec.counterexample = bad
            break
    return rec


def _pin_ratio(rec: IdentityRecord, draw, ratio) -> IdentityRecord:
    """Check that ``ratio(*draw())``, a (value, witness) pair, has the same
    value on each of ``rec.trials`` draws, and record that constant."""
    pin = _ConstantPin()
    _for_all(rec, rec.trials, lambda: pin.check(*ratio(*draw())))
    rec.constant = pin.value if rec.passed else None
    return rec


# -- suites -------------------------------------------------------------------


def suite_prop21(rng, trials, bound):
    def pair():
        f = _random_form(rng, 2, bound)
        g = _random_form(rng, 2, bound)
        res = sylvester_resultant(f, g).as_scalar()
        return (f, g, res) if res else None

    def ratio(f, g, res):
        return hyperresultant([f, g], XY).as_scalar() / res, f"(f1={f}, f2={g})"

    rec = IdentityRecord("hyperresultant-vs-resultant", trials, True)
    return [_pin_ratio(rec, lambda: _reject_degenerate(pair, "coprime quadratic pair"), ratio)]


def suite_wronskian(rng, trials, bound):
    def triple():
        fs = [_random_form(rng, 2, bound) for _ in range(3)]
        w = wronskian3(*fs).as_scalar()
        return (fs, w) if w else None

    def ratio(fs, w):
        r3 = hyperresultant(fs, XY).as_scalar()
        return r3 / w ** 2, f"(f1={fs[0]}, f2={fs[1]}, f3={fs[2]})"

    def dependent():
        f1 = _random_form(rng, 2, bound)
        f2 = _random_form(rng, 2, bound)
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        f3 = a * f1 + b * f2
        if f3.is_zero():
            f3 = f1
        r3 = hyperresultant([f1, f2, f3], XY)
        if not r3.is_zero():
            return f"(f1={f1}, f2={f2}, f3={f3}) -> {r3}"

    ratio_rec = _pin_ratio(
        IdentityRecord("wronskian-square-ratio", trials, True),
        lambda: _reject_degenerate(triple, "independent quadratic triple"), ratio)
    dep_trials = max(trials, 20)
    dep_rec = IdentityRecord("dependent-triple-vanish", dep_trials, True)
    return [ratio_rec, _for_all(dep_rec, dep_trials, dependent)]


def suite_prop11(rng, trials, bound):
    def cubic():
        f = _random_form(rng, 3, bound)
        disc = binary_form_disc(f).as_scalar()
        return (f, disc) if disc else None

    def ratio(f, disc):
        return hyperhessian(f, (1, 1, 1), XY).as_scalar() / disc, f"(f={f})"

    rec = IdentityRecord("cubic-hyperhessian-vs-disc", trials, True)
    return [_pin_ratio(rec, lambda: _reject_degenerate(cubic, "nondegenerate cubic"), ratio)]


_QUARTIC_VARS = ("c40", "c31", "c22", "c13", "c04", "x", "y")
_QUARTIC = "c40*x^4 + c31*x^3*y + c22*x^2*y^2 + c13*x*y^3 + c04*y^4"


def suite_prop12(rng, trials, bound):
    rec = IdentityRecord("symbolic-quartic-divisibility", 1, True)
    f = parse_poly(_QUARTIC, _QUARTIC_VARS)
    hh = hyperhessian(f, (1, 1, 1, 1), XY)
    disc = binary_form_disc(f)
    quot = hh.exact_div(disc)
    if quot is None or quot * disc != hh:
        rec.passed = False
        rec.counterexample = "hyperhessian not divisible by the symbolic discriminant"
    return [rec]


def suite_prop24(rng, trials, bound):
    def shared_root():
        line = _random_form(rng, 1, bound)
        f = line * _random_form(rng, 2, bound)
        g = line * _random_form(rng, 2, bound)
        r2 = hyperresultant([f, g], XY)
        if not r2.is_zero():
            return f"(f={f}, g={g}) -> {r2}"

    rec = IdentityRecord("shared-root-hyperresultant-vanish", trials, True)
    return [_for_all(rec, trials, shared_root)]


def suite_prop41(rng, trials, bound):
    pin1, pin2 = _ConstantPin(), _ConstantPin()
    rec1 = IdentityRecord("disc-of-iterated-hessian", trials, True, nominal="2^36*3^6")
    rec2 = IdentityRecord("resultant-with-iterated-hessian", trials, True, nominal="2^24*3^12")
    for _ in range(trials):
        def draw():
            f = _random_form(rng, 4, bound)
            disc = binary_form_disc(f).as_scalar()
            hank = hankel_quartic(f).as_scalar()
            apol = apolar_quartic(f).as_scalar()
            return (f, disc, hank, apol) if disc and hank and apol else None
        f, disc, hank, apol = _reject_degenerate(draw, "generic quartic")
        f111 = hyperhessian(f, (1, 1, 1), XY)
        k1 = binary_form_disc(f111, XY, degree=4).as_scalar() / (disc * hank ** 6)
        k2 = sylvester_resultant(f, f111).as_scalar() / (disc ** 2 * apol ** 4)
        for rec, pin, k in ((rec1, pin1, k1), (rec2, pin2, k2)):
            if not rec.passed:
                continue
            bad = pin.check(k, f"(f={f})")
            if bad:
                rec.passed = False
                rec.counterexample = bad
        if not (rec1.passed or rec2.passed):
            break
    for rec, pin in ((rec1, pin1), (rec2, pin2)):
        if rec.passed:
            rec.constant = pin.value
            if not is_23_smooth(pin.value):
                rec.passed = False
                rec.counterexample = f"constant {pin.value} has prime factors beyond 2 and 3"
    return [rec1, rec2]


def suite_hankel22(rng, trials, bound):
    rec = IdentityRecord("polarised-pair-hessian-vs-hankel", 1, True)
    f = parse_poly(_QUARTIC, _QUARTIC_VARS)
    h22 = hyperhessian(f, (2, 2), XY)
    hank = hankel_quartic(f)
    quot = h22.exact_div(hank)
    if quot is None:
        rec.passed = False
        rec.counterexample = "ratio is not a polynomial"
    else:
        try:
            rec.constant = quot.as_scalar()
        except DomainError:
            rec.passed = False
            rec.counterexample = f"ratio is not constant: {quot}"
    return [rec]


def suite_skew(rng, trials, bound):
    dims = (10, 1, 7, 1, 7, 1)
    complete = IdentityRecord("skew-projection-completeness", trials, True)
    ortho = IdentityRecord("skew-projector-orthogonality", trials, True)
    ranks = IdentityRecord("skew-projector-ranks", 1, True)
    shape = (3, 3, 3)
    for _ in range(trials):
        t = _random_tensor(rng, shape, bound)
        parts = [project_k(t, k) for k in range(6)]
        if complete.passed and sum(parts[1:], parts[0]) != t:
            complete.passed = False
            complete.counterexample = f"sum of projections differs on {t.to_json()}"
        for k in range(6):
            for j in range(6):
                double = project_k(parts[j], k)
                expect = parts[k] if k == j else Tensor.zeros(shape, t.vars)
                if double != expect:
                    ortho.passed = False
                    ortho.counterexample = f"p_{k} o p_{j} misbehaves on {t.to_json()}"
                    break
            if not ortho.passed:
                break
        if not (complete.passed or ortho.passed):
            break
    traces = tuple(projector_trace(3, 3, k) for k in range(6))
    if traces != tuple(Fraction(d) for d in dims):
        ranks.passed = False
        ranks.counterexample = f"traces {traces} != {dims}"
    return [complete, ortho, ranks]


def suite_glscale(rng, trials, bound):
    def triple_slot():
        a = _random_tensor(rng, (2, 2, 2), bound)
        g, det = _random_matrix(rng, 2, bound)
        acted = a.apply_gl(0, g).apply_gl(1, g).apply_gl(2, g)
        if hyperdet(acted) != det ** 6 * hyperdet(a):
            return f"tensor {a.to_json()}, g={g}"

    def gramm_base():
        form = _random_tensor(rng, (3, 3), bound)
        vecs = [[Fraction(rng.randint(-bound, bound)) for _ in range(3)] for _ in range(3)]
        g, det = _random_matrix(rng, 3, bound)
        mixed = [[sum(g[i][j] * vecs[j][c] for j in range(3)) for c in range(3)]
                 for i in range(3)]
        base = gramm_form(form, vecs).base
        mixed_base = gramm_form(form, mixed).base
        if mixed_base != det ** 2 * base:
            return f"form {form.to_json()}, g={g}"

    return [_for_all(IdentityRecord("triple-slot-action-scaling", trials, True),
                     trials, triple_slot),
            _for_all(IdentityRecord("gramm-base-scaling", trials, True), trials, gramm_base)]


def suite_dependent(rng, trials, bound):
    def dependent_tuple(m):
        form = _random_tensor(rng, (m, m), bound)
        vecs = [[Fraction(rng.randint(-bound, bound)) for _ in range(m)]
                for _ in range(m - 1)]
        weights = [Fraction(rng.randint(-bound, bound)) for _ in range(m - 1)]
        dep = [sum(w * v[c] for w, v in zip(weights, vecs)) for c in range(m)]
        where = rng.randrange(m)
        tup = vecs[:where] + [dep] + vecs[where:]
        if not gramm_form(form, tup).base.is_zero():
            return f"m={m}, form {form.to_json()}, tuple {tup}"

    def proportional_pair():
        form = _random_tensor(rng, (2, 2, 2), bound)
        u = [Fraction(rng.randint(-bound, bound)) for _ in range(2)]
        lam = Fraction(rng.randint(-bound, bound))
        if not gramm_form(form, [u, [lam * c for c in u]]).base.is_zero():
            return f"form {form.to_json()}, u={u}, lambda={lam}"

    d2 = IdentityRecord("bilinear-dependent-tuple-vanish", 3 * trials, True)
    for m in (2, 3, 4):
        if not _for_all(d2, trials, lambda: dependent_tuple(m)).passed:
            break
    d3 = IdentityRecord("trilinear-dependent-pair-vanish", trials, True)
    return [d2, _for_all(d3, trials, proportional_pair)]


def suite_oracle(rng, trials, bound):
    def closed_form():
        t = _random_tensor(rng, (2, 2, 2), bound)
        if hyperdet(t) != cayley_hyperdet_222(t):
            return t.to_json()

    def axis_order():
        t = _random_tensor(rng, (2, 2, 3), bound)
        h = hyperdet(t)
        if (hyperdet(t.transpose((0, 2, 1))) != h
                or hyperdet(t.transpose((2, 0, 1))) != h):
            return t.to_json()

    return [_for_all(IdentityRecord("schlaefli-vs-closed-form", trials, True),
                     trials, closed_form),
            _for_all(IdentityRecord("axis-permutation-2x2x3", trials, True),
                     trials, axis_order)]


_PARSER_VAR_POOL = ("x", "y", "z", "a", "b", "c")


def suite_parser(rng, trials, bound):
    def roundtrip():
        nvars = rng.randint(1, 3)
        variables = tuple(rng.sample(_PARSER_VAR_POOL, nvars))
        terms = {}
        for _ in range(rng.randint(0, 6)):
            exps = tuple(rng.randint(0, 5) for _ in range(nvars))
            coeff = Fraction(rng.randint(-bound * 11, bound * 11), rng.randint(1, 9))
            if rng.random() < 0.2:
                coeff = coeff * zeta(6) ** rng.randint(1, 5)
            if coeff:
                terms[exps] = terms.get(exps, Fraction(0)) + coeff
        p = MultiPoly(variables, terms)
        text = str(p)
        back = parse_poly(text, variables)
        if back != p or str(back) != text:
            return text

    rec = IdentityRecord("print-parse-roundtrip", trials, True)
    return [_for_all(rec, trials, roundtrip)]


SUITES = {
    "prop21": (suite_prop21, 50),
    "wronskian": (suite_wronskian, 50),
    "prop11": (suite_prop11, 50),
    "prop12": (suite_prop12, 1),
    "prop24": (suite_prop24, 20),
    "prop41": (suite_prop41, 20),
    "hankel22": (suite_hankel22, 1),
    "skew": (suite_skew, 5),
    "glscale": (suite_glscale, 50),
    "dependent": (suite_dependent, 20),
    "oracle": (suite_oracle, 100),
    "parser": (suite_parser, 1000),
}


def run_suite(name: str, seed: int = 0, trials: int | None = None,
              coeff_range: int = 9) -> VerifyReport:
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    fn, default_trials = SUITES[name]
    rng = random.Random(seed)
    report = VerifyReport(name, seed, coeff_range)
    report.identities = fn(rng, trials if trials is not None else default_trials,
                           coeff_range)
    return report


def run_all(seed: int = 0, trials: int | None = None,
            coeff_range: int = 9) -> list[VerifyReport]:
    return [run_suite(name, seed, trials, coeff_range) for name in SUITES]
