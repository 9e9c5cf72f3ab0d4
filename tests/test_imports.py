"""Every module-level import in src/replalg is used, and every function,
method and class it defines is read somewhere in it.

Stdlib-ast scans: a name bound by a top-level `import` or `from ...
import` statement must be read somewhere in the module (or be listed in
its __all__); a defined name must be read, as a name or an attribute, in
some module of the package, unless an allowlist entry below says why it
stays."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "replalg"

# defined names that nothing in src/replalg reads, and why each stays
# (beside dunders, the suite_* functions that verify.verify dispatches
# through globals(), and the names that bench/tracer.py TARGETS pins)
UNREAD_ALLOWED = {
    "verify_approximation": "library approximation check; bench/selftest.py checks its default",
    "direct_sum": "library API with inclusions and projections; tests and oracles use it",
    "dim_table": "library API; tests use it",
    "inverse": "library API of exactfield; tests use it",
}


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


def unread_definitions(sources):
    """(file, line, name) of every function, method and class defined in
    `sources` (file name -> text) whose name none of them reads."""
    defs, read = [], set()
    for fname, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((fname, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(d for d in defs if d[2] not in read)


def tracer_pinned():
    """The function names in bench/tracer.py TARGETS ("IndecCatalog.rad_basis"
    pins rad_basis), read with literal_eval so the list cannot drift."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in n.targets))
    return {name.rsplit(".", 1)[-1] for names in ast.literal_eval(node.value).values()
            for name in names}


def allowed_unread(name, pinned):
    return ((name.startswith("__") and name.endswith("__")) or name.startswith("suite_")
            or name in pinned or name in UNREAD_ALLOWED)


def test_detector_flags_an_unread_definition():
    sources = {"a.py": ("class A:\n    def used(self):\n        return 1\n"
                        "    def unused(self):\n        return 2\n"
                        "    def __len__(self):\n        return 0\n"
                        "def helper():\n    return A().used()\n"),
               "b.py": "from a import helper\nhelper()\ndef suite_x():\n    pass\n"}
    dead = unread_definitions(sources)
    assert dead == [("a.py", 4, "unused"), ("a.py", 6, "__len__"), ("b.py", 3, "suite_x")]
    assert [name for _, _, name in dead if not allowed_unread(name, set())] == ["unused"]
    assert allowed_unread("unused", {"unused"})


def test_every_definition_is_read_in_src():
    dead = unread_definitions({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))})
    pinned = tracer_pinned()
    assert [d for d in dead if not allowed_unread(d[2], pinned)] == []
    # an allowlist entry that src reads, or no longer defines, is stale
    assert set(UNREAD_ALLOWED) <= {name for _, _, name in dead}
