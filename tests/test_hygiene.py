"""Source hygiene that needs no linter: no module imports a name it never uses,
and no public function or class goes uncalled by the library unless an open
item reserves it."""

import ast
from pathlib import Path

import pytest

import pointscatter

MODULES = sorted(p for p in Path(pointscatter.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import math\nimport os\nprint(math.pi)\n") == ["line 2: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Public functions and classes that only tests call, each kept for open work:
# the mu map of the standard route, the auxiliary entries and band projection
# of the projection-sandwich identity, the contact-matching regulator, and the
# near-field constant 2 pi / z + gamma that defines the scattering length.
RESERVED_FOR_TESTS = {"renormalize_bare", "auxiliary_entries", "project_band",
                      "regularized_h0_position_scheme", "near_field_expansion_check"}


def uncalled_definitions(sources: list[str]) -> set[str]:
    """Module-level public functions and classes that no source names outside
    their own definition."""
    trees = [ast.parse(source) for source in sources]
    defined, named = set(), set()
    for tree in trees:
        for node in tree.body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined.add(own)
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name is not None and name != own:
                    named.add(name)
    return defined - named


def test_detects_an_uncalled_function():
    sources = ["def f():\n    return f()\n\ndef g():\n    pass\n\nclass _H:\n    pass\n",
               "import m\nm.g()\n"]
    assert uncalled_definitions(sources) == {"f"}


def test_only_reserved_definitions_go_uncalled():
    assert uncalled_definitions([path.read_text() for path in MODULES]) == RESERVED_FOR_TESTS
