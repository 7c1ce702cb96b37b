"""Source hygiene that needs no linter: no module imports a name it never uses,
no public function, class, method or property goes uncalled by the library
unless an open item reserves it, and only the named functions construct
``CheckResult``s or build atoms and amplitudes past their checks."""

import ast
import importlib
from pathlib import Path

import pytest

import pointscatter
from pointscatter import verify

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
# the auxiliary entries and band projection of the projection-sandwich
# identity, the contact-matching regulator, and the near-field constant
# 2 pi / z + gamma that defines the scattering length.
RESERVED_FOR_TESTS = {"auxiliary_entries", "project_band",
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


# Public methods and properties that only tests reach, each kept for open
# work: B- = varpi * F, the left side of the projection-sandwich identity
# (TestEdgeAnnihilation projects it onto the band).
RESERVED_MEMBERS = {"FRepresentation.times_varpi"}


def uncalled_members(sources: list[str], overrides=frozenset()) -> set[str]:
    """Public methods and properties of module-level classes, as
    "Class.member", that no source reaches as an attribute outside the
    member's own body.  Only ``obj.member`` counts: a bare local that shares
    the member's name is not a use of it.  ``overrides`` names members whose
    caller is a base class outside the sources."""
    trees = [ast.parse(source) for source in sources]
    defined, reached = {}, set()
    for tree in trees:
        for node in tree.body:
            is_class = isinstance(node, ast.ClassDef)
            for item in node.body if is_class else [node]:
                own = item.name if is_class and isinstance(item, ast.FunctionDef) else None
                if own is not None and not own.startswith("_"):
                    defined[f"{node.name}.{own}"] = own
                reached |= {sub.attr for sub in ast.walk(item)
                            if isinstance(sub, ast.Attribute) and sub.attr != own}
    return {member for member, name in defined.items()
            if name not in reached and member not in overrides}


def external_overrides() -> set[str]:
    """Members of the package's classes that override a method of a base
    class defined outside the package, such as ``argparse``'s ``error``."""
    found = set()
    for path in MODULES:
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"pointscatter.{path.stem}")
        for cls in vars(module).values():
            if not (isinstance(cls, type) and cls.__module__ == module.__name__):
                continue
            bases = [base for base in cls.__mro__[1:]
                     if not base.__module__.startswith("pointscatter")]
            found |= {f"{cls.__name__}.{name}" for name in vars(cls)
                      if not name.startswith("_")
                      and any(hasattr(base, name) for base in bases)}
    return found


def test_detects_an_uncalled_member():
    sources = ["class A:\n    def used(self):\n        return self.used()\n\n"
               "    @property\n    def total(self):\n        return 1\n\n"
               "    def _private(self):\n        pass\n\n"
               "    def error(self):\n        pass\n",
               "total = 2\n"]
    assert uncalled_members(sources) == {"A.used", "A.total", "A.error"}
    sources.append("A().used()\nprint(A().total)\n")
    assert uncalled_members(sources, {"A.error"}) == set()


def test_external_overrides_found():
    assert external_overrides() == {"_Parser.error"}


def test_only_reserved_members_go_uncalled():
    sources = [path.read_text() for path in MODULES]
    assert uncalled_members(sources, external_overrides()) == RESERVED_MEMBERS


def constructors(source: str, name: str) -> set[str]:
    """Module-level functions and methods ("Class.method") whose bodies call
    ``name``, as ``name(...)`` or ``obj.name(...)``, plus "<module>" for a
    call outside any function."""
    def calls(node):
        return any(isinstance(sub, ast.Call)
                   and name in (getattr(sub.func, "id", None), getattr(sub.func, "attr", None))
                   for sub in ast.walk(node))

    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            found |= {f"{node.name}.{getattr(item, 'name', '<body>')}"
                      for item in node.body if calls(item)}
        elif calls(node):
            found.add(node.name if isinstance(node, ast.FunctionDef) else "<module>")
    return found


def test_detects_a_constructor():
    source = ("R(1)\n\ndef f():\n    return [R(2)]\n\ndef g():\n    return R\n\n"
              "class C:\n    def m(self):\n        return mod.R(3)\n\n    def n(self):\n"
              "        return mod.R\n")
    assert constructors(source, "R") == {"<module>", "f", "C.m"}


def test_verify_checks_form_one_table():
    # only run_all builds a CheckResult, and each check name is one table entry
    assert constructors(Path(verify.__file__).read_text(), "CheckResult") == {"run_all"}
    names = [name for entries, _ in verify._CHECKS for name, _ in entries]
    assert len(names) == len(set(names))


def test_unvalidated_constructors_stay_in_the_algebra():
    # only the algebra's own operations build atoms and amplitudes past the
    # dataclass checks, so every outside input goes through those checks
    callers = {f"{path.stem}.{caller}" for path in MODULES
               for name in ("_new_atom", "_new_amplitude")
               for caller in constructors(path.read_text(), name)}
    assert callers == {"amplitudes._merged", "amplitudes.zero_amplitude", "amplitudes.add",
                       "amplitudes.add_constant", "amplitudes.scale",
                       "amplitudes.IncidentWave.delta_source"}
