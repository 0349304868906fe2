"""hyperforms runs on the standard library alone: ``pyproject.toml`` declares no
dependencies, and every module imports only the standard library or hyperforms."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")  # tomllib needs 3.11
    assert re.findall(r"(?m)^dependencies\s*=\s*(.*?)\s*$", text) == ["[]"]


def test_modules_import_only_the_standard_library():
    modules = sorted((ROOT / "src" / "hyperforms").glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # level > 0: relative
                tops = [node.module.partition(".")[0]]
            else:
                continue
            for top in tops:
                assert top in sys.stdlib_module_names or top == "hyperforms", (path.name, top)
