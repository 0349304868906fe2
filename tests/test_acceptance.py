"""Acceptance suite.

Each criterion runs at its stated trial count with exact arithmetic (zero
tolerance everywhere) and prints one pass/fail line including its wall time
against the stated budget.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines.
"""

import contextlib
import time
from fractions import Fraction

from hyperforms.classical import hankel_quartic, sylvester_resultant
from hyperforms.hyperdet import binary_form_disc
from hyperforms.parser import parse_poly
from hyperforms.polarisation import hyperhessian, hyperresultant
from hyperforms.verify import factored_constant, is_23_smooth, run_suite

from shared import XY

SEED = 7
QUARTIC_VARS = ("c40", "c31", "c22", "c13", "c04", "x", "y")
QUARTIC_TEXT = "c40*x^4 + c31*x^3*y + c22*x^2*y^2 + c13*x*y^3 + c04*y^4"


@contextlib.contextmanager
def criterion(number, label, limit_seconds):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        in_time = elapsed < limit_seconds
        status = "PASS" if ok and in_time else "FAIL"
        print(f"criterion {number:2d} [{label}]: {status} "
              f"({elapsed:.2f}s, limit {limit_seconds:g}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def _assert_suite(report):
    for record in report.identities:
        assert record.passed, f"{record.id}: {record.counterexample}"


def test_criterion_1_hyperresultant_equals_resultant_up_to_constant():
    with criterion(1, "quadratic hyperresultant vs resultant", 5):
        f, g = parse_poly("x^2", XY), parse_poly("y^2", XY)
        assert hyperresultant([f, g], XY) == 16
        assert sylvester_resultant(f, g) == 1
        report = run_suite("prop21", seed=SEED, trials=50)
        _assert_suite(report)
        assert report.identities[0].constant == Fraction(16)


def test_criterion_2_triple_hyperresultant_is_wronskian_square():
    with criterion(2, "R3 = const * W^2 and dependent vanishing", 10):
        report = run_suite("wronskian", seed=SEED, trials=50)
        _assert_suite(report)
        ratio, dependent = report.identities
        assert ratio.trials >= 50 and ratio.constant is not None
        assert dependent.trials >= 20


def test_criterion_3_cubic_hyperhessian_vs_disc():
    with criterion(3, "cubic full polarisation vs discriminant", 5):
        report = run_suite("prop11", seed=SEED, trials=50)
        _assert_suite(report)
        assert report.identities[0].constant is not None


def test_criterion_4_symbolic_quartic_divisibility():
    with criterion(4, "symbolic 2x2x2x2 hyperhessian divisible by disc", 300):
        f = parse_poly(QUARTIC_TEXT, QUARTIC_VARS)
        hh = hyperhessian(f, (1, 1, 1, 1), XY)
        disc = binary_form_disc(f)
        quotient = hh.exact_div(disc)
        assert quotient is not None
        assert quotient * disc == hh  # re-multiplication check, exact


def test_criterion_5_shared_root_cubic_pairs_vanish():
    with criterion(5, "cubic pairs with a shared root annihilate R2", 30):
        report = run_suite("prop24", seed=SEED, trials=20)
        _assert_suite(report)
        assert report.identities[0].trials >= 20


def test_criterion_6_quartic_generator_identities():
    with criterion(6, "iterated-hessian generator ratios, {2,3}-smooth", 60):
        report = run_suite("prop41", seed=SEED, trials=20)
        _assert_suite(report)
        first, second = report.identities
        for record in (first, second):
            assert record.constant is not None
            assert is_23_smooth(record.constant)
            assert record.nominal is not None  # printed next to the found constant
        text = report.format_text()
        assert "nominal 2^36*3^6" in text and "nominal 2^24*3^12" in text
        print(f"    found {factored_constant(first.constant)} "
              f"and {factored_constant(second.constant)}")


def test_criterion_7_pair_polarisation_vs_hankel():
    with criterion(7, "symbolic (2,2)-hessian vs Hankel invariant", 5):
        f = parse_poly(QUARTIC_TEXT, QUARTIC_VARS)
        h22 = hyperhessian(f, (2, 2), XY)
        hank = hankel_quartic(f)
        cvars = QUARTIC_VARS[:5]
        assert h22.homogeneous_degree_in(cvars) == 3
        assert hank.homogeneous_degree_in(cvars) == 3
        quotient = h22.exact_div(hank)
        assert quotient is not None
        assert quotient.as_scalar() == Fraction(8)


def test_criterion_8_skew_projector_algebra():
    with criterion(8, "skew projectors: completeness, orthogonality, ranks", 10):
        report = run_suite("skew", seed=SEED, trials=5)
        _assert_suite(report)


def test_criterion_9_gl_scaling_laws():
    with criterion(9, "det(g)^6 triple-slot scaling and det(g)^2 Gramm scaling", 5):
        report = run_suite("glscale", seed=SEED, trials=50)
        _assert_suite(report)
        assert all(r.trials >= 50 for r in report.identities)


def test_criterion_10_dependent_tuples_vanish():
    with criterion(10, "Gramm base vanishes on dependent tuples", 5):
        report = run_suite("dependent", seed=SEED, trials=20)
        _assert_suite(report)
        d2, d3 = report.identities
        assert d2.trials >= 60  # 20 per tuple size m = 2, 3, 4
        assert d3.trials >= 20


def test_criterion_11_hyperdet_oracle_equivalence():
    with criterion(11, "Schlaefli vs closed form; 2x2x3 axis permutation", 5):
        report = run_suite("oracle", seed=SEED, trials=100)
        _assert_suite(report)
        assert all(r.trials >= 100 for r in report.identities)


def test_criterion_12_parser_roundtrip():
    with criterion(12, "print-parse round-trip on canonical polynomials", 5):
        report = run_suite("parser", seed=SEED, trials=1000)
        _assert_suite(report)
        assert report.identities[0].trials >= 1000
