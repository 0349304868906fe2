import hashlib
import json
from fractions import Fraction

import pytest

import hyperforms.verify
from hyperforms.errors import DomainError
from hyperforms.verify import (
    SUITES,
    _ConstantPin,
    factored_constant,
    is_23_smooth,
    run_all,
    run_suite,
)


def test_factored_constant_formatting():
    assert factored_constant(Fraction(16)) == "+2^4*3^0*(1/1)"
    assert factored_constant(Fraction(-48)) == "-2^4*3^1*(1/1)"
    assert factored_constant(Fraction(1, 16)) == "+2^-4*3^0*(1/1)"
    assert factored_constant(Fraction(2 ** 36 * 3 ** 6)) == "+2^36*3^6*(1/1)"
    assert factored_constant(Fraction(35, 2)) == "+2^-1*3^0*(35/1)"
    assert factored_constant(Fraction(0)) == "0"


def test_smoothness_predicate():
    assert is_23_smooth(Fraction(-2 ** 24 * 3 ** 12))
    assert is_23_smooth(Fraction(8, 9))
    assert not is_23_smooth(Fraction(35))
    assert not is_23_smooth(Fraction(1, 5))


def test_constant_pin_calibrates_then_detects_mismatch():
    pin = _ConstantPin()
    assert pin.check(Fraction(5), "first") is None
    assert pin.check(Fraction(5), "second") is None
    complaint = pin.check(Fraction(7), "third")
    assert complaint is not None
    assert "first" in complaint and "third" in complaint
    assert "5" in complaint and "7" in complaint


def test_unknown_suite_rejected():
    with pytest.raises(DomainError, match="unknown suite"):
        run_suite("nonsense", seed=1)


def test_reports_are_deterministic_for_fixed_seed():
    a = run_suite("prop21", seed=3, trials=4)
    b = run_suite("prop21", seed=3, trials=4)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_report_json_shape():
    report = run_suite("prop11", seed=5, trials=3)
    data = report.to_json_dict()
    assert data["schema"] == 1
    assert data["suite"] == "prop11"
    assert data["seed"] == 5
    assert data["range"] == 9
    record = data["identities"][0]
    assert set(record) == {"id", "trials", "pass", "constant", "nominal", "counterexample"}
    assert record["pass"] is True
    assert record["constant"] == "-2^4*3^1*(1/1)"


def test_all_suites_pass_at_small_trial_counts():
    reports = run_all(seed=11, trials=3)
    for report in reports:
        assert report.passed, report.format_text()
    # the exact report bytes are part of the contract, witnesses included
    text = json.dumps([r.to_json_dict() for r in reports])
    assert len(text) == 3510
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "393202776b8f3c7eb5a677f87e7d890ba7481d7559418ade0fd073efb403aba3")


def test_failing_identity_reports_its_witnesses(monkeypatch):
    real = hyperforms.verify.hyperresultant
    calls = []

    def off_on_second_call(forms, geo):
        calls.append(None)
        value = real(forms, geo)
        return value + 1 if len(calls) == 2 else value

    monkeypatch.setattr(hyperforms.verify, "hyperresultant", off_on_second_call)
    ratio = run_suite("prop21", seed=1, trials=3).identities[0]
    assert (ratio.passed, ratio.constant) == (False, None)
    assert ratio.counterexample == (
        "(f1=-5*x^2 + 9*x*y - 7*y^2, f2=-x^2 - 6*x*y + 6*y^2) -> 16; "
        "(f1=5*x^2 + 6*x*y + 3*y^2, f2=-3*x^2 - 6*x*y + 6*y^2) -> 34705/2169")
    calls.clear()
    vanish = run_suite("prop24", seed=1, trials=3).identities[0]
    assert not vanish.passed
    assert vanish.counterexample == (
        "(f=-18*x^3 + 36*x^2*y - 45*x*y^2 + 27*y^3, "
        "g=9*x^3 + 3*x^2*y - 39*x*y^2 + 27*y^3) -> 1")


def test_suite_registry_matches_cli_contract():
    assert set(SUITES) == {
        "prop21", "wronskian", "prop11", "prop12", "prop24", "prop41",
        "hankel22", "skew", "glscale", "dependent", "oracle", "parser",
    }
