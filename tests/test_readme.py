"""README's examples run as written: each answer in a trailing comment is checked.

In the python quickstart a bare expression with a comment ``# <int>`` must equal
that integer; a CLI line ``hyperforms ... # <int>`` must print it.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from hyperforms.cli import run_command

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
_ANSWER = re.compile(r"#\s*(-?\d+)\b")


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def _cli_examples():
    lines = [line for block in _blocks("sh") for line in block.splitlines()]
    return [(line[:m.start()], int(m.group(1))) for line in lines
            if line.startswith("hyperforms ") and (m := _ANSWER.search(line))]


def test_quickstart_answers():
    (block,) = _blocks("python")
    lines = block.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README quickstart", "exec"), namespace)
            continue
        m = _ANSWER.search(lines[node.end_lineno - 1])
        assert m, f"bare expression without an answer: {ast.unparse(node)}"
        value = eval(compile(ast.Expression(node.value), "README quickstart", "eval"), namespace)
        assert value == int(m.group(1)), (ast.unparse(node), str(value))
        checked.append(int(m.group(1)))
    assert checked == [-27, 1296, 16]


def test_cli_examples_are_collected():
    assert [answer for _, answer in _cli_examples()] == [-27, 2, 16, 2, 280, 12]


@pytest.mark.parametrize("command, answer", _cli_examples())
def test_cli_example_answers(capsys, command, answer):
    assert run_command(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == f"{answer}\n"
