import hashlib
import itertools
import json
from fractions import Fraction

import pytest

import hyperforms.cli
import hyperforms.verify
from hyperforms.cli import run_command
from hyperforms.errors import DomainError
from hyperforms.gramm import GrammValue
from hyperforms.poly import MultiPoly
from hyperforms.tensor import Tensor
from hyperforms.verify import (
    SUITES,
    _pinned,
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
    ok = _pinned("ratio", 2, [(Fraction(5), "first"), (Fraction(5), "second")])
    assert (ok.passed, ok.constant, ok.counterexample) == (True, 5, None)
    ratios = iter([(Fraction(v), name) for v, name in
                   ((5, "first"), (5, "second"), (7, "third"), (9, "fourth"))])
    bad = _pinned("ratio", 4, ratios)
    assert (bad.passed, bad.constant) == (False, None)
    assert bad.counterexample == "first -> 5; third -> 7"
    assert next(ratios) == (9, "fourth")  # the stream stops at the first mismatch


def test_zero_trials_pin_no_constant():
    for name in ("prop21", "prop41"):
        for rec in run_suite(name, seed=1, trials=0).identities:
            assert rec.passed and rec.constant is None


def test_negative_trials_and_range_refused():
    with pytest.raises(ValueError, match="trials must be >= 0, got -2"):
        run_suite("prop21", seed=1, trials=-2)
    # prop41 and skew hold all their draws at once, so the count is bounded
    with pytest.raises(ValueError, match="trials must be <= 1000, got 1001"):
        run_suite("skew", seed=1, trials=1001)
    with pytest.raises(ValueError, match="coefficient range must be >= 0, got -1"):
        run_suite("prop21", seed=1, coeff_range=-1)
    for name in ("prop12", "hankel22", "skew"):
        assert run_suite(name, seed=1, trials=1, coeff_range=0).passed


def test_trials_and_range_must_be_integers():
    # refused before the suite runs, not blamed on it
    with pytest.raises(TypeError, match="float"):
        run_suite("prop21", seed=1, trials=2.5)
    with pytest.raises(TypeError, match="float"):
        run_suite("prop21", seed=1, coeff_range=9.0)
    assert run_suite("prop21", seed=1, trials=True, coeff_range=True).coeff_range == 1


def test_verify_records_cannot_be_assigned_to():
    report = run_suite("prop21", seed=1, trials=1)
    rec = report.identities[0]
    for obj, name in ((rec, "passed"), (rec, "constant"), (report, "seed")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


def test_range_too_small_names_the_suite():
    with pytest.raises(ValueError, match="suite prop21: coefficient range too small"):
        run_suite("prop21", seed=4, trials=2, coeff_range=0)


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


def test_north_star_report_bytes_are_pinned(capsys):
    assert run_command(["verify", "--suite", "all", "--seed", "7", "--json"]) == 0
    out = capsys.readouterr().out
    assert len(out) == 3583
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8190c2e544ae17a0ac679d49af2cf98e72efc01c2228c9d59a0ce2ca237f5e84")


def test_skew_reports_the_first_orthogonality_counterexample(monkeypatch):
    real = hyperforms.verify.project_k
    drawn, projected = [], {}  # projected keeps its tensors alive, so ids stay unique

    def wrong_on_projections(t, k):
        if id(t) in projected:
            return t  # p_k o p_j = p_j: wrong whenever k != j and p_j != 0
        if k == 0:
            drawn.append(t)
        part = real(t, k)
        projected[id(part)] = part
        return part

    monkeypatch.setattr(hyperforms.verify, "project_k", wrong_on_projections)
    complete, ortho, _ = run_suite("skew", seed=1, trials=3).identities
    assert complete.passed and not ortho.passed
    assert len(drawn) == 3
    assert ortho.counterexample == f"p_0 o p_1 misbehaves on {drawn[0].to_json()}"


# The library names each suite calls; prop12 and hankel22 are symbolic and
# take no draws, so one wrong first call each covers them.
_CALLED = {
    "prop21": ("sylvester_resultant", "hyperresultant"),
    "wronskian": ("wronskian3", "hyperresultant"),
    "prop11": ("binary_form_disc", "hyperhessian"),
    "prop12": ("hyperhessian",),
    "prop24": ("hyperresultant",),
    "prop41": ("binary_form_disc", "hankel_quartic", "apolar_quartic", "hyperhessian",
               "sylvester_resultant"),
    "hankel22": ("hankel_quartic",),
    "skew": ("project_k", "projector_trace"),
    "glscale": ("det_rows", "hyperdet", "gramm_form"),
    "dependent": ("gramm_form",),
    "oracle": ("hyperdet", "cayley_hyperdet_222"),
    "parser": ("parse_poly",),
}


def _off_by_one(value):
    """The same kind of value with its leading coefficient off by one."""
    if isinstance(value, Tensor):
        return value.map_entries(_off_by_one)
    if isinstance(value, GrammValue):
        return value._replace(base=_off_by_one(value.base))
    if isinstance(value, MultiPoly) and not value.is_zero():
        return value + MultiPoly(value.vars, {max(value.terms): 1})
    return value + 1


_WRONG_ON = {"1st": (1).__eq__, "2nd": (2).__eq__, "every": bool}


def test_failure_paths_are_pinned(monkeypatch):
    """One library name goes wrong on its 1st call, its 2nd, or every call:
    each identity must stop after the same draws with the same witnesses, and
    the identities after it must see the same random state."""
    runs = []
    for suite, names in _CALLED.items():
        for name in names:
            for when in _WRONG_ON if SUITES[suite][1] > 1 else ("1st",):
                real, count = getattr(hyperforms.verify, name), itertools.count(1)

                def patched(*args, real=real, count=count, wrong=_WRONG_ON[when], **kwargs):
                    value = real(*args, **kwargs)
                    return _off_by_one(value) if wrong(next(count)) else value

                with monkeypatch.context() as patch:
                    patch.setattr(hyperforms.verify, name, patched)
                    report = run_suite(suite, seed=1, trials=2)
                runs.append([name, when, report.to_json_dict()])
    assert len(runs) == 65 and not any(data["pass"] for _, _, data in runs)
    text = json.dumps(runs)
    assert len(text) == 34356
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bd43be2925d3be8afe558fe3a8c75cafd5ab0d9c5aca909275cdde87575eb9f1")


def test_suite_registry_matches_cli_contract():
    assert set(SUITES) == {
        "prop21", "wronskian", "prop11", "prop12", "prop24", "prop41",
        "hankel22", "skew", "glscale", "dependent", "oracle", "parser",
    }
    # the CLI names the suites, in this order, without importing verify
    assert hyperforms.cli.SUITES == tuple(SUITES)
