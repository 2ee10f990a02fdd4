"""The input rules live in errors.py alone: no other module of the package
tests for numpy integers or calls math.isfinite itself."""
import ast
from pathlib import Path

import pytest

import qsp_lab
from qsp_lab.errors import entry

PACKAGE = Path(qsp_lab.__file__).parent


def inline_rules(path: Path) -> list[tuple[int, str]]:
    """(line, idiom) of each isinstance(..., np.integer) call and each use of math.isfinite."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and len(node.args) == 2
                and any(isinstance(n, ast.Attribute) and n.attr == "integer" for n in ast.walk(node.args[1]))):
            found.append((node.lineno, "isinstance(..., np.integer)"))
        if (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                and isinstance(node.value, ast.Name) and node.value.id == "math"):
            found.append((node.lineno, "math.isfinite"))
        if isinstance(node, ast.ImportFrom) and node.module == "math" and "isfinite" in {a.name for a in node.names}:
            found.append((node.lineno, "from math import isfinite"))
    return found


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "errors.py"),
                         ids=lambda p: p.name)
def test_no_inline_input_rules(path):
    assert inline_rules(path) == []


def test_the_check_sees_the_rules_in_errors_py():
    assert {idiom for _, idiom in inline_rules(PACKAGE / "errors.py")} == {
        "isinstance(..., np.integer)", "math.isfinite",
    }


class Apple:
    """A type whose name starts with a vowel."""


class Pear:
    """A type whose name starts with a consonant."""


@pytest.mark.parametrize("kind, message", [
    (Apple, "fruit must be an Apple, got 'x'"),
    (Pear, "fruit must be a Pear, got 'x'"),
], ids=["an-before-a-vowel", "a-before-a-consonant"])
def test_entry_writes_the_article_of_the_type_name(kind, message):
    with pytest.raises(ValueError) as refused:
        entry("x", kind, "fruit")
    assert str(refused.value) == message
