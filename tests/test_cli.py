import json

import pytest

from hyperforms.cli import run_command
from hyperforms.tensor import Tensor


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_verify_unknown_suite_exit_3(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 3
    assert "unknown suite" in err


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
