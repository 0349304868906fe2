"""Seeded verification suites that reproduce the package's identities and
pin every convention constant as an exact rational.

Each suite draws integer coefficients uniformly from [-R, R] (default R = 9),
resampling degenerate instances up to 1000 times, and checks its identities
exactly.  Each identity reads a lazy stream of verdicts, one per trial, and
stops at its first counterexample, so it takes no draw after that and later
identities see the random state it leaves; identities that share draws take
them all first and map over one list.  A ratio constant is recorded only when
it is identical across all trials; the first disagreement demotes the
identity to a failure carrying both witnesses.
"""

from __future__ import annotations

import operator
import random
from collections import namedtuple
from fractions import Fraction
from itertools import islice, repeat, starmap

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


class IdentityRecord(namedtuple("IdentityRecord", (
        "id", "trials", "passed", "constant", "nominal", "counterexample"))):
    """The outcome of one identity: a named tuple, built with its final fields."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "trials": self.trials,
            "pass": self.passed,
            "constant": None if self.constant is None else factored_constant(self.constant),
            "nominal": self.nominal,
            "counterexample": self.counterexample,
        }


class VerifyReport(namedtuple("VerifyReport", ("suite", "seed", "coeff_range", "identities"))):
    """The identity records of one suite run: a named tuple."""

    __slots__ = ()

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


def _reject_degenerate(draw, what: str):
    """Resample until ``draw`` returns a non-None instance, capped at 1000;
    only a coefficient range too small for one (such as 0) exhausts the cap."""
    for _ in range(1000):
        v = draw()
        if v is not None:
            return v
    raise ValueError(f"coefficient range too small: 1000 draws gave no {what}")


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
        det = det_rows(g).as_scalar()
        return (g, det) if det else None
    return _reject_degenerate(draw, f"invertible {n}x{n} matrix")


def _calls(fn, *args):
    """The lazy stream ``fn(*args), fn(*args), ...``: fresh draws or verdicts."""
    return starmap(fn, repeat(args))


def _holds(name: str, trials: int, verdicts, nominal: str | None = None) -> IdentityRecord:
    """Read at most ``trials`` verdicts from the lazy iterable ``verdicts``; the
    first counterexample string fails the identity and ends the stream."""
    bad = next(filter(None, islice(verdicts, trials)), None)
    return IdentityRecord(name, trials, bad is None, None, nominal, bad)


def _pinned(name: str, trials: int, ratios, nominal: str | None = None) -> IdentityRecord:
    """Check that the lazy ``(value, witness)`` pairs ``ratios`` share one value:
    the first pair calibrates it, a mismatch fails with both witnesses, and a
    pass records the value as the identity's constant."""
    first = []

    def verdict(value, witness):
        if not first:
            first.append((value, witness))
        elif value != first[0][0]:
            return f"{first[0][1]} -> {first[0][0]}; {witness} -> {value}"

    rec = _holds(name, trials, starmap(verdict, ratios), nominal)
    return rec._replace(constant=first[0][0]) if rec.passed and first else rec


# -- suites -------------------------------------------------------------------


def suite_prop21(rng, trials, bound):
    def pair():
        f = _random_form(rng, 2, bound)
        g = _random_form(rng, 2, bound)
        res = sylvester_resultant(f, g).as_scalar()
        return (f, g, res) if res else None

    def ratio(f, g, res):
        return hyperresultant([f, g], XY).as_scalar() / res, f"(f1={f}, f2={g})"

    pairs = _calls(_reject_degenerate, pair, "coprime quadratic pair")
    return [_pinned("hyperresultant-vs-resultant", trials, starmap(ratio, pairs))]


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
        f3 = a * f1 + b * f2 or f1
        r3 = hyperresultant([f1, f2, f3], XY)
        if not r3.is_zero():
            return f"(f1={f1}, f2={f2}, f3={f3}) -> {r3}"

    triples = _calls(_reject_degenerate, triple, "independent quadratic triple")
    return [_pinned("wronskian-square-ratio", trials, starmap(ratio, triples)),
            _holds("dependent-triple-vanish", max(trials, 20), _calls(dependent))]


def suite_prop11(rng, trials, bound):
    def cubic():
        f = _random_form(rng, 3, bound)
        disc = binary_form_disc(f).as_scalar()
        return (f, disc) if disc else None

    def ratio(f, disc):
        return hyperhessian(f, (1, 1, 1), XY).as_scalar() / disc, f"(f={f})"

    cubics = _calls(_reject_degenerate, cubic, "nondegenerate cubic")
    return [_pinned("cubic-hyperhessian-vs-disc", trials, starmap(ratio, cubics))]


_QUARTIC_VARS = ("c40", "c31", "c22", "c13", "c04", "x", "y")
_QUARTIC = "c40*x^4 + c31*x^3*y + c22*x^2*y^2 + c13*x*y^3 + c04*y^4"


def suite_prop12(rng, trials, bound):
    f = parse_poly(_QUARTIC, _QUARTIC_VARS)
    hh, disc = hyperhessian(f, (1, 1, 1, 1), XY), binary_form_disc(f)
    quot = hh.exact_div(disc)
    bad = (None if quot is not None and quot * disc == hh
           else "hyperhessian not divisible by the symbolic discriminant")
    return [_holds("symbolic-quartic-divisibility", 1, [bad])]


def suite_prop24(rng, trials, bound):
    def shared_root():
        line = _random_form(rng, 1, bound)
        f = line * _random_form(rng, 2, bound)
        g = line * _random_form(rng, 2, bound)
        r2 = hyperresultant([f, g], XY)
        if not r2.is_zero():
            return f"(f={f}, g={g}) -> {r2}"

    return [_holds("shared-root-hyperresultant-vanish", trials, _calls(shared_root))]


def suite_prop41(rng, trials, bound):
    def quartic():
        f = _random_form(rng, 4, bound)
        disc = binary_form_disc(f).as_scalar()
        hank = hankel_quartic(f).as_scalar()
        apol = apolar_quartic(f).as_scalar()
        if disc and hank and apol:
            return f, hyperhessian(f, (1, 1, 1), XY), disc, hank, apol

    def disc_ratio(f, f111, disc, hank, apol):
        return binary_form_disc(f111, XY, degree=4).as_scalar() / (disc * hank ** 6), f"(f={f})"

    def resultant_ratio(f, f111, disc, hank, apol):
        return sylvester_resultant(f, f111).as_scalar() / (disc ** 2 * apol ** 4), f"(f={f})"

    draws = [_reject_degenerate(quartic, "generic quartic") for _ in range(trials)]
    recs = [_pinned(name, trials, starmap(ratio, draws), nominal) for name, nominal, ratio in (
        ("disc-of-iterated-hessian", "2^36*3^6", disc_ratio),
        ("resultant-with-iterated-hessian", "2^24*3^12", resultant_ratio))]
    rough = "constant {} has prime factors beyond 2 and 3"
    return [rec._replace(passed=False, counterexample=rough.format(rec.constant))
            if rec.constant is not None and not is_23_smooth(rec.constant) else rec
            for rec in recs]


def suite_hankel22(rng, trials, bound):
    f = parse_poly(_QUARTIC, _QUARTIC_VARS)
    quot = hyperhessian(f, (2, 2), XY).exact_div(hankel_quartic(f))
    bad = ("ratio is not a polynomial" if quot is None
           else f"ratio is not constant: {quot}" if quot.total_degree() > 0 else None)
    rec = _holds("polarised-pair-hessian-vs-hankel", 1, [bad])
    return [rec._replace(constant=None if bad else quot.as_scalar())]


def suite_skew(rng, trials, bound):
    dims = (10, 1, 7, 1, 7, 1)
    shape = (3, 3, 3)

    def complete(t, parts):
        if sum(parts[1:], parts[0]) != t:
            return f"sum of projections differs on {t.to_json()}"

    def orthogonal(t, parts):
        zero = Tensor.zeros(shape, t.vars)
        for k in range(6):
            for j in range(6):
                if project_k(parts[j], k) != (parts[k] if k == j else zero):
                    return f"p_{k} o p_{j} misbehaves on {t.to_json()}"

    tensors = [_random_tensor(rng, shape, bound) for _ in range(trials)]
    draws = [(t, [project_k(t, k) for k in range(6)]) for t in tensors]
    traces = tuple(projector_trace(3, 3, k) for k in range(6))
    ranks = None if traces == dims else f"traces {traces} != {dims}"
    return [_holds("skew-projection-completeness", trials, starmap(complete, draws)),
            _holds("skew-projector-orthogonality", trials, starmap(orthogonal, draws)),
            _holds("skew-projector-ranks", 1, [ranks])]


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
        if gramm_form(form, mixed).base != det ** 2 * base:
            return f"form {form.to_json()}, g={g}"

    return [_holds("triple-slot-action-scaling", trials, _calls(triple_slot)),
            _holds("gramm-base-scaling", trials, _calls(gramm_base))]


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

    tuples = (dependent_tuple(m) for m in (2, 3, 4) for _ in range(trials))
    return [_holds("bilinear-dependent-tuple-vanish", 3 * trials, tuples),
            _holds("trilinear-dependent-pair-vanish", trials, _calls(proportional_pair))]


def suite_oracle(rng, trials, bound):
    def closed_form():
        t = _random_tensor(rng, (2, 2, 2), bound)
        if hyperdet(t) != cayley_hyperdet_222(t):
            return t.to_json()

    def axis_order():
        t = _random_tensor(rng, (2, 2, 3), bound)
        h = hyperdet(t)
        if any(hyperdet(t.transpose(p)) != h for p in ((0, 2, 1), (2, 0, 1))):
            return t.to_json()

    return [_holds("schlaefli-vs-closed-form", trials, _calls(closed_form)),
            _holds("axis-permutation-2x2x3", trials, _calls(axis_order))]


_PARSER_VAR_POOL = ("x", "y", "z", "a", "b", "c")


def suite_parser(rng, trials, bound):
    zeta6_powers = [zeta(6) ** k for k in range(6)]

    def roundtrip():
        nvars = rng.randint(1, 3)
        variables = tuple(rng.sample(_PARSER_VAR_POOL, nvars))
        terms = {}
        for _ in range(rng.randint(0, 6)):
            exps = tuple(rng.randint(0, 5) for _ in range(nvars))
            coeff = Fraction(rng.randint(-bound * 11, bound * 11), rng.randint(1, 9))
            if rng.random() < 0.2:
                coeff = coeff * zeta6_powers[rng.randint(1, 5)]
            if coeff:
                terms[exps] = terms[exps] + coeff if exps in terms else coeff
        p = MultiPoly(variables, terms)
        text = str(p)
        back = parse_poly(text, variables)
        if back != p or str(back) != text:
            return text

    return [_holds("print-parse-roundtrip", trials, _calls(roundtrip))]


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
_MAX_TRIALS = max(default for _, default in SUITES.values())


def run_suite(name: str, seed: int = 0, trials: int | None = None,
              coeff_range: int = 9) -> VerifyReport:
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    fn, default_trials = SUITES[name]
    trials = default_trials if trials is None else operator.index(trials)
    coeff_range = operator.index(coeff_range)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if trials > _MAX_TRIALS:  # prop41 and skew hold every draw at once
        raise ValueError(f"trials must be <= {_MAX_TRIALS}, got {trials}")
    if coeff_range < 0:
        raise ValueError(f"coefficient range must be >= 0, got {coeff_range}")
    try:
        identities = fn(random.Random(seed), trials, coeff_range)
    except ValueError as exc:  # a draw the coefficient range cannot satisfy
        raise ValueError(f"suite {name}: {exc}") from exc
    return VerifyReport(name, seed, coeff_range, identities)


def run_all(seed: int = 0, trials: int | None = None,
            coeff_range: int = 9) -> list[VerifyReport]:
    return [run_suite(name, seed, trials, coeff_range) for name in SUITES]
