import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hyperforms
from hyperforms.cli import run_command
from hyperforms.tensor import Tensor


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# sha256 of each --help screen at COLUMNS=80; "" is the top-level screen
HELP_SHA256 = {
    "": "0c2d25feae3322eda53adfc9d896110e46ee46720871df8202581d665145b2dc",
    "polarize": "e255e624e718a6e89e596e2728c72d18d519c1943762d6707bfab6e8f114f598",
    "hyperdet": "894e79b6ab82e1bb8355a02ca95331a8cc161f9e94293b798d01db8ccc1dcda3",
    "disc": "ace287d396266b0f7d6b9c41ec86211e515120e83ca9887d0be96c7967e592cf",
    "resultant": "0f9aed30722530df0b10de2f35ca817de92a26dafc447589855e0ce5e7101b8e",
    "hyperhessian": "0bd593e3a3324b47eef847da9256873131b40d800a1eb564986125cb6bbf583e",
    "hyperresultant": "f53860342a021b9cb67875ed85cdfe4849319fa64aaa12c586d035387a525077",
    "jacobi": "142e347cca940b11f02a3618ce533d795ee3f35c1cc0e036a7f613786d65f73d",
    "wronskian": "96df8449b89a44e4543f165212202121ebebf8fab25ae159eb3ca5c93872616f",
    "hankel": "7acd44d7b4e0f1255e1601dca9a49f34117305eb8eac1ffd22b57dbbe26610d0",
    "apolar": "4e26537625ade8c7973aab453a1c59df19c18b5c4cf051d15db071cb12d7411d",
    "gramm": "8a090a9070e2c6d242ea7a5afd6193b7dccacc31cfbb86e11f45914e20ee615f",
    "project": "2a929a73fc1c90bdff8966aa59b75ef3421fa965846646da69d5d908837cfd25",
    "verify": "98d1d9d96cb88318ee6eb179e716781e83950f2911b8a5c7f0fe8fff9ea99e90",
}


@pytest.mark.parametrize("command", HELP_SHA256, ids=lambda c: c or "top")
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    code, out, err = run(capsys, *([command] if command else []), "--help")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]


def test_disc_example(capsys):
    code, out, _ = run(capsys, "disc", "--f", "x^3+y^3", "--vars", "x,y")
    assert code == 0
    assert out.strip() == "-27"


def test_disc_json(capsys):
    code, out, _ = run(capsys, "disc", "--f", "x^2 - y^2", "--vars", "x,y", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["poly"] == "4"


def test_resultant(capsys):
    code, out, _ = run(capsys, "resultant", "--f", "x - y", "--g", "x + y",
                       "--vars", "x,y")
    assert code == 0 and out.strip() == "2"


def test_symbolic_disc_with_coeffs(capsys):
    code, out, _ = run(capsys, "disc", "--f", "a*x^2 + b*x*y + c*y^2",
                       "--vars", "x,y", "--coeffs", "a,b,c")
    assert code == 0
    assert out.strip() == "-4*a*c + b^2"  # graded-lex order over (a, b, c)


def test_hyperhessian_nonexistent_format_exit_3(capsys):
    code, _, err = run(capsys, "hyperhessian", "--f", "x^4 + y^4",
                       "--vars", "x,y", "--K", "3,1")
    assert code == 3
    assert "4x2" in err and "does not exist" in err


def test_unsupported_format_exit_4(capsys, tmp_path):
    t = Tensor.zeros((3, 3, 3), ("x",))
    path = tmp_path / "t.json"
    path.write_text(t.to_json())
    code, _, err = run(capsys, "hyperdet", "--tensor", str(path))
    assert code == 4
    assert "unsupported" in err


def test_zero_dimensional_tensor_exit_3(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"shape": [], "vars": [], "entries": ["1"]}))
    code, out, err = run(capsys, "hyperdet", "--tensor", str(path))
    assert (code, out) == (3, "")
    assert "0-dimensional format []" in err


def test_root_of_unity_order_above_limit_exit_2(capsys):
    code, out, err = run(capsys, "disc", "--f", "zeta65*x^2 + y^2", "--vars", "x,y")
    assert (code, out) == (2, "")
    assert "limit 64" in err


def test_huge_exponent_exit_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "disc", "--f", "(x+y)^2000", "--vars", "x,y")
    assert time.perf_counter() - start < 5  # expanding the power would take minutes
    assert (code, out) == (2, "")
    assert "limit 64" in err


@pytest.mark.parametrize("form", ["x^" + "9" * 5000, "9" * 5000 + "*x^2 + y^2"])
def test_long_digit_string_exit_2_with_position(capsys, form):
    code, out, err = run(capsys, "disc", "--f", form, "--vars", "x,y")
    assert (code, out) == (2, "")
    assert "(at position" in err and "Exceeds the limit" not in err


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_answer_longer_than_int_str_limit_prints_in_full(capsys, json_flag):
    # the input stays under Python's 4300-digit limit for int <-> str; the
    # answer -4 * (10^3000 - 1)^2 has 6001 digits, and the limit is restored
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "disc", "--f", f"({'9' * 3000})^2*x^2+y^2", "--vars", "x,y",
                         *json_flag)
    assert sys.get_int_max_str_digits() == limit
    assert (code, err) == (0, "")
    want = "-3" + "9" * 2999 + "2" + "0" * 2999 + "4"
    assert (json.loads(out)["poly"] if json_flag else out.strip()) == want


def test_form_degree_above_limit_exit_3(capsys):
    code, out, err = run(capsys, "disc", "--f", "x^40 + x*y^39 - y^40", "--vars", "x,y")
    assert (code, out) == (3, "")
    assert "limited to degree 32" in err
    code, out, err = run(capsys, "resultant", "--f", "x^40 + y^40", "--g", "x - y",
                         "--vars", "x,y")
    assert (code, out) == (3, "")
    assert "limited to degree 32" in err


def test_disc_declared_degree_must_match_the_form(capsys):
    code, out, err = run(capsys, "disc", "--f", "x^3+y^3", "--vars", "x,y", "--degree", "4")
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "degree 4, got degree 3" in err
    code, out, _ = run(capsys, "disc", "--f", "0", "--vars", "x,y", "--degree", "4")
    assert (code, out) == (0, "0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "disc", "--f", "0", "--vars", "x,y", "--degree", "1000000000")
    assert time.perf_counter() - start < 5  # no list of 10^9 coefficients is built
    assert (code, out) == (3, "")
    assert "limited to degree 32" in err


def test_huge_polarisation_exit_3_at_once(capsys):
    power_sum = " + ".join(f"x{i}^40" for i in range(10))
    names = ",".join(f"x{i}" for i in range(10))
    for args in (("--f", "x^40+y^40", "--vars", "x,y", "--K", ",".join(["1"] * 40)),
                 ("--f", power_sum, "--vars", names, "--K", "40")):
        start = time.perf_counter()
        code, out, err = run(capsys, "hyperhessian", *args)
        assert time.perf_counter() - start < 5  # 2^40 entries, or C(49, 9) indices
        assert (code, out) == (3, "")
        assert "out of scope" in err


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "disc", "--f", "x^-1", "--vars", "x,y")
    assert code == 2
    assert "exponent" in err


def test_usage_error_exit_2(capsys):
    code, _, _ = run(capsys, "disc", "--f", "x^2")  # missing --vars
    assert code == 2


def test_hyperdet_from_file(capsys, tmp_path):
    entries = ["1", "0", "0", "0", "0", "0", "0", "1"]
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"shape": [2, 2, 2], "vars": [], "entries": entries}))
    code, out, _ = run(capsys, "hyperdet", "--tensor", str(path))
    assert code == 0 and out.strip() == "1"


def test_polarize_tensor_json_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "polarize", "--f", "x^3 + y^3", "--vars", "x,y",
                       "--K", "1,1,1", "--json")
    assert code == 0
    t = Tensor.from_json(out)
    assert t.shape == (2, 2, 2)
    assert t.to_json() == out.strip()


def test_hyperresultant_pair(capsys):
    code, out, _ = run(capsys, "hyperresultant", "--f", "x^2", "--f", "y^2",
                       "--vars", "x,y")
    assert code == 0 and out.strip() == "16"


def test_hyperresultant_unsupported_exit_4(capsys):
    code, _, err = run(capsys, "hyperresultant", "--f", "x^4", "--f", "y^4",
                       "--vars", "x,y")
    assert code == 4
    assert "2x2x2x2x2" in err


def test_hyperresultant_nonexistent_format_exit_3(capsys):
    code, _, err = run(capsys, "hyperresultant", "--f", "x^2", "--f", "y^2",
                       "--f", "x*y", "--f", "x^2 + y^2", "--vars", "x,y")
    assert code == 3
    assert "does not exist" in err and "2x2x4" in err


def test_gramm_seven_vectors_exit_3(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(Tensor.zeros((7, 7)).to_json())
    vectors = ";".join(",".join("1" if i == j else "0" for j in range(7)) for i in range(7))
    code, _, err = run(capsys, "gramm", "--form", str(path), "--vectors", vectors)
    assert code == 3
    assert "6x6" in err


def test_wronskian(capsys):
    code, out, _ = run(capsys, "wronskian", "--f", "x^2", "--f", "x*y",
                       "--f", "y^2", "--vars", "x,y")
    assert code == 0 and out.strip() == "2"


def test_hankel_apolar(capsys):
    code, out, _ = run(capsys, "hankel", "--f", "x^4 + x^2*y^2 + y^4", "--vars", "x,y")
    assert code == 0 and out.strip() == "280"
    code, out, _ = run(capsys, "apolar", "--f", "x^4 + y^4", "--vars", "x,y")
    assert code == 0 and out.strip() == "12"


def test_jacobi_layout(capsys):
    code, out, _ = run(capsys, "jacobi", "--f", "x^2", "--f", "y^2",
                       "--vars", "x,y", "--K", "1,1", "--json")
    assert code == 0
    t = Tensor.from_json(out)
    assert t.shape == (2, 2, 2)


def test_gramm_cli(capsys, tmp_path):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(
        {"shape": [2, 2], "vars": [], "entries": ["1", "0", "0", "1"]}))
    code, out, _ = run(capsys, "gramm", "--form", str(path), "--vectors", "1,0;0,1")
    assert code == 0
    assert "base = 1" in out and "exponent = 1/2" in out


def test_gramm_skew_cli(capsys, tmp_path):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(
        {"shape": [2, 2], "vars": [], "entries": ["1", "4", "2", "9"]}))
    code, out, _ = run(capsys, "gramm", "--form", str(path),
                       "--vectors", "1,0;0,1", "--skew", "1")
    assert code == 0
    assert "base = 1" in out


def test_project_cli(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(
        {"shape": [2, 2], "vars": [], "entries": ["1", "4", "2", "9"]}))
    code, out, _ = run(capsys, "project", "--tensor", str(path), "--k", "1", "--json")
    assert code == 0
    t = Tensor.from_json(out)
    assert str(t[(0, 1)]) == "1" and str(t[(1, 0)]) == "-1"


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "prop21", "--seed", "7",
                       "--trials", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["suite"] == "prop21"
    assert data["seed"] == 7
    assert data["identities"][0]["pass"] is True
    assert data["identities"][0]["constant"] == "+2^4*3^0*(1/1)"


def test_verify_all_json_wrapper(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "3",
                       "--trials", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1 and data["suite"] == "all"
    assert data["pass"] is True
    assert len(data["reports"]) == 12


def test_verify_unknown_suite_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "invalid choice: 'nope'" in err and "usage:" in err


@pytest.mark.parametrize("flag, value, complaint", [
    ("--trials", "-2", "trials must be >= 0, got -2"),
    ("--trials", "1001", "trials must be <= 1000, got 1001"),
    ("--range", "-1", "coefficient range must be >= 0, got -1"),
])
def test_verify_negative_trials_or_range_exit_2(capsys, flag, value, complaint):
    code, out, err = run(capsys, "verify", "--suite", "prop21", flag, value)
    assert code == 2 and out == ""
    assert err == f"error: {complaint}\n"


def test_verify_range_too_small_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--seed", "4",
                         "--range", "0", "--trials", "2")
    assert (code, out) == (2, "")
    assert err == ("error: suite prop21: coefficient range too small: "
                   "1000 draws gave no degree-2 form\n")


@pytest.mark.parametrize("names", ["x", "x,y,z"])
@pytest.mark.parametrize("command, forms", [
    ("disc", ("--f", "x^2")),
    ("resultant", ("--f", "x", "--g", "x")),
    ("wronskian", ("--f", "x^2", "--f", "x", "--f", "1")),
    ("hankel", ("--f", "x^4")),
    ("apolar", ("--f", "x^4")),
])
def test_binary_commands_need_two_form_variables_exit_3(capsys, command, forms, names):
    code, out, err = run(capsys, command, *forms, "--vars", names)
    assert (code, out) == (3, "")
    count = len(names.split(","))
    assert err == f"error: a binary form needs exactly two form variables, got {count}\n"


@pytest.mark.parametrize("flag, value, complaint", [
    ("--K", "1,a", "key must be comma-separated integers, got '1,a'"),
    ("--K", "", "key must be comma-separated integers, got ''"),
    ("--vars", ",", "expected a comma-separated list of names"),
    ("--coeffs", " , ", "expected a comma-separated list of names"),
    ("--coeffs", "", "expected a comma-separated list of names"),
], ids=["K-letter", "K-empty", "vars-comma", "coeffs-blank", "coeffs-empty"])
def test_malformed_key_or_names_exit_2(capsys, flag, value, complaint):
    argv = {"--f": "x^4 + y^4", "--vars": "x,y", "--K": "2,2"}
    argv[flag] = value
    code, out, err = run(capsys, "hyperhessian", *(t for item in argv.items() for t in item))
    assert (code, out) == (2, "")
    assert err.startswith("usage: hyperforms hyperhessian ")
    assert err.endswith(f"hyperforms hyperhessian: error: argument {flag}: {complaint}\n")


def test_determinism_byte_identical(capsys):
    args = ("verify", "--suite", "prop41", "--seed", "7", "--trials", "3", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_missing_tensor_file_exit_2(capsys):
    code, _, _ = run(capsys, "hyperdet", "--tensor", "/nonexistent/t.json")
    assert code == 2


def test_malformed_tensor_json_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"shape": [2, 2]}))
    code, _, err = run(capsys, "hyperdet", "--tensor", str(path))
    assert code == 2
    assert "lacks keys" in err


@pytest.mark.parametrize("data, complaint", [
    ({"shape": [2, 2], "vars": [], "entries": [1, 2, 3, 4]}, "'entries'"),
    ({"shape": [2, 2], "vars": "xy", "entries": ["x", "y", "0", "1"]}, "'vars'"),
    ({"shape": [2.0, 2], "vars": [], "entries": ["1", "0", "0", "1"]}, "'shape'"),
    (5, "object"),
])
def test_mistyped_tensor_json_exit_2(capsys, tmp_path, data, complaint):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "hyperdet", "--tensor", str(path))
    assert (code, out) == (2, "")
    assert complaint in err and len(err.splitlines()) == 1


def test_deeply_nested_tensor_json_exit_2():
    # the JSON decoder recurses once per bracket; the CLI must not show the traceback
    env = dict(os.environ, PYTHONPATH=str(Path(hyperforms.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "hyperforms", "hyperdet", "--tensor=-"],
                          input="[" * 200000 + "]" * 200000, capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == ["error: tensor JSON nested too deeply"]


def test_tensor_path_is_directory_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "hyperdet", "--tensor", str(tmp_path))
    assert code == 2
    assert len(err.splitlines()) == 1


def test_gramm_zero_denominator_exit_2(capsys, tmp_path):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(
        {"shape": [2, 2], "vars": [], "entries": ["1", "0", "0", "1"]}))
    code, _, err = run(capsys, "gramm", "--form", str(path), "--vectors", "1/0,1;0,1")
    assert code == 2
    assert "zero denominator" in err


@pytest.mark.parametrize("vectors", [";", " ; ", "a,b"])
def test_gramm_malformed_vectors_exit_2(capsys, tmp_path, vectors):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(
        {"shape": [2, 2], "vars": [], "entries": ["1", "0", "0", "1"]}))
    code, out, err = run(capsys, "gramm", "--form", str(path), "--vectors", vectors)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1


def test_duplicate_variable_names_exit_2(capsys):
    code, out, err = run(capsys, "polarize", "--f", "x^2+y^2", "--vars", "x,y",
                         "--coeffs", "x", "--K", "1,1")
    assert (code, out) == (2, "")
    assert "duplicate" in err


def test_deep_nesting_exit_2(capsys):
    code, _, err = run(capsys, "disc", "--f", "(" * 3000 + "x^2" + ")" * 3000,
                       "--vars", "x,y")
    assert code == 2
    assert "nested deeper" in err
