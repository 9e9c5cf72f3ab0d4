"""Every module-level import in src/replalg is used.

A stdlib-ast scan: a name bound by a top-level `import` or `from ...
import` statement must be read somewhere in the module (or be listed in
its __all__)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "replalg"


def unused_imports(source):
    """Names bound by module-level imports of `source` that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_detector_flags_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom . import exactfield as ef\n"
              "from .errors import InputError, AnomalyError\n"
              "__all__ = ['AnomalyError']\n"
              "def f():\n    return ef.zeros(1, 1)\n")
    assert unused_imports(source) == [(1, "os"), (2, "np"), (4, "InputError")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []
