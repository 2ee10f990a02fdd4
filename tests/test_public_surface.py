"""Every public top-level name of the package is read somewhere other than
its own definition: by another module of the package, a test, the
benchmark, or another definition in its own module.  A public name that
nothing reads is deleted, not kept."""
import ast
from pathlib import Path

import pytest

import qsp_lab

PACKAGE = Path(qsp_lab.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(PACKAGE.glob("*.py"))
READERS = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """name -> the top-level statement that defines it, for each name without a leading underscore."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found.update((name, node) for name in names if not name.startswith("_"))
    return found


def read_names(nodes) -> set[str]:
    """The names the nodes mention: bare names, attributes and imported names."""
    found = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
    return found


def unread(tree: ast.Module, elsewhere: set[str]) -> list[str]:
    """The public names of tree that neither elsewhere nor another statement of tree reads."""
    return [name for name, node in public_definitions(tree).items()
            if name not in elsewhere and name not in read_names(n for n in tree.body if n is not node)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_is_read(path):
    elsewhere = read_names(ast.parse(p.read_text()) for p in READERS if p != path)
    assert unread(ast.parse(path.read_text()), elsewhere) == []


def test_the_check_sees_an_unread_name():
    tree = ast.parse("LIMIT = 3\n\ndef used(x):\n    return used(x - 1) if x else LIMIT\n\ndef unused():\n    pass\n")
    assert unread(tree, set()) == ["used", "unused"]
    assert unread(tree, {"used"}) == ["unused"]
