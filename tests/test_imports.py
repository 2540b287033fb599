"""Import hygiene: what the package's modules import, and what that costs,
what the tests' reference implementations may import from the package, and
that no test imports a private name of the package."""

import ast
import subprocess
import sys
from itertools import chain
from pathlib import Path

import cgprune

SOURCES = sorted(
    p for p in Path(cgprune.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of `source` that the
    module never reads."""
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[alias.asname or alias.name.partition(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys\nfrom math import fsum, isqrt as root\nsys.exit(fsum([]))\n"
    assert unused_imports(source) == ["os (line 1)", "root (line 3)"]


def test_no_module_has_an_unused_import():
    assert SOURCES
    found = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert {name: names for name, names in found.items() if names} == {}


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private names of `sources` (file name -> source) bound by a
    ``def``, ``class`` or assignment at module level or in a class body
    (methods, cached properties, class attributes) that no module reads:
    not as a name, an attribute or an imported name.  Dunders are not
    private."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for file, tree in trees.items():
        unread += [
            f"{file}: {name} (line {line})" for name, line in bound_names(with_class_bodies(tree))
            if name.startswith("_") and not name.endswith("__") and name not in read
        ]
    return unread


def with_class_bodies(tree: ast.Module):
    """The module-level statements of `tree`, then those of every class body."""
    classes = [c.body for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
    return chain(tree.body, *classes)


def bound_names(stmts) -> list[tuple[str, int]]:
    """(name, line) for each name that a ``def``, ``class`` or assignment
    among `stmts` binds."""
    found = []
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [(name, stmt.lineno) for name in names]
    return found


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a.py": (
            "_used = 1\n_unused, _pair = 2, 3\n__version__ = '1'\n"
            "def _f():\n    return _used + _pair\nclass _Gone:\n    pass\n"
            "class _Kept:\n    pass\n"
        ),
        "b.py": "import a\nfrom a import _Kept\na._f()\n",
    }
    assert unread_private_names(sources) == ["a.py: _unused (line 2)", "a.py: _Gone (line 6)"]


def test_the_check_sees_an_unread_private_name_in_a_class_body():
    sources = {
        "a.py": (
            "from functools import cached_property\n"
            "class Kept:\n"
            "    _limit = 3\n    _spare: int = 0\n"
            "    def __init__(self):\n        self.n = self._limit\n"
            "    @cached_property\n    def _roots(self):\n        return {}\n"
            "    @cached_property\n    def _ancestors(self):\n        return {}\n"
            "    def _walk(self):\n        return self._ancestors\n"
            "    class _Inner:\n        def _deep(self):\n            pass\n"
        ),
        "b.py": "import a\na.Kept()._walk()\n",
    }
    assert unread_private_names(sources) == [
        "a.py: _spare (line 4)", "a.py: _roots (line 8)",
        "a.py: _Inner (line 15)", "a.py: _deep (line 16)",
    ]


def test_no_private_name_is_left_unread():
    package = sorted(Path(cgprune.__file__).parent.glob("*.py"))
    assert unread_private_names({p.name: p.read_text(encoding="utf-8") for p in package}) == []


# What `tests/reference.py` may import from the package: value types,
# containers and errors, never a memo, cone, walk or index of a fast path.
REFERENCE_MAY_IMPORT = frozenset({
    "CallEdge", "CallGraph", "ExclusionList", "GraphError", "LocalnessOptions",
    "MethodNode", "MethodSignature", "OriginMap", "OriginRef", "ProjectRoleMap",
    "PruneDecision", "TypeHierarchy", "TypeNode", "UnknownTypeError",
})

REFERENCE = Path(__file__).with_name("reference.py")


def package_imports_outside(source: str, allowed: frozenset[str]) -> list[str]:
    """The package names `source` imports that are not in `allowed`: each
    name of a ``from cgprune... import``, and every ``import cgprune...``,
    which reaches the whole package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [
                f"{alias.name} (line {node.lineno})" for alias in node.names
                if alias.name.partition(".")[0] == "cgprune"
            ]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "cgprune":
            found += [
                f"{alias.name} (line {node.lineno})" for alias in node.names
                if alias.name not in allowed
            ]
    return found


def names_defined_twice(reference: str, sources: dict[str, str]) -> list[str]:
    """The names `reference` binds at module level that a module of
    `sources` (file name -> source) binds at module level or in a class
    body, such as a method."""
    mine = {name for name, _ in bound_names(ast.parse(reference).body)}
    twice = []
    for file, source in sources.items():
        twice += [
            f"{file}: {name} (line {line})"
            for name, line in bound_names(with_class_bodies(ast.parse(source))) if name in mine
        ]
    return twice


def test_the_check_sees_a_reference_import_of_a_fast_path():
    source = (
        "from cgprune import CallGraph, reflexive_descendants\n"
        "from cgprune.model import ancestor_depths\n"
        "import cgprune.origins\nimport json\n"
        "from cgprune import model as m\n"
    )
    assert package_imports_outside(source, frozenset({"CallGraph"})) == [
        "reflexive_descendants (line 1)", "ancestor_depths (line 2)",
        "cgprune.origins (line 3)", "model (line 5)",
    ]


def test_the_reference_imports_only_value_types_containers_and_errors():
    source = REFERENCE.read_text(encoding="utf-8")
    assert "from cgprune import" in source
    assert package_imports_outside(source, REFERENCE_MAY_IMPORT) == []


def test_the_check_sees_a_reference_defined_in_the_package():
    reference = "def oracle():\n    pass\nclass Table:\n    def decide(self):\n        pass\n"
    sources = {
        "a.py": "class Roles:\n    def oracle(self):\n        pass\n",
        "b.py": "Table = dict\ndef decide():\n    pass\n",
    }
    assert names_defined_twice(reference, sources) == [
        "a.py: oracle (line 2)", "b.py: Table (line 1)",
    ]


def test_no_reference_is_defined_in_the_package():
    package = sorted(Path(cgprune.__file__).parent.glob("*.py"))
    reference = REFERENCE.read_text(encoding="utf-8")
    assert names_defined_twice(reference, {p.name: p.read_text(encoding="utf-8") for p in package}) == []


def private_package_imports(source: str) -> list[str]:
    """The underscore names `source` imports from the package or one of
    its modules with ``from cgprune... import``."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "cgprune"
        for alias in node.names if alias.name.startswith("_")
    ]


def test_the_check_sees_a_test_import_of_a_private_name():
    source = (
        "from cgprune.vulnsim import _walk, propagate\n"
        "from cgprune import model, _helper as h\n"
        "from reference import _own_walk\n"
        "def f():\n    from cgprune.model import _index\n"
    )
    assert private_package_imports(source) == [
        "_walk (line 1)", "_helper (line 2)", "_index (line 5)",
    ]


def test_no_test_borrows_a_private_package_name():
    # a private function of the package is a fast path: a test that took
    # its expected values from one would compare that code with itself
    tests = sorted(Path(__file__).parent.glob("*.py"))
    found = {p.name: private_package_imports(p.read_text(encoding="utf-8")) for p in tests}
    assert {name: names for name, names in found.items() if names} == {}


def test_cli_import_loads_no_numeric_tower():
    # statistics pulls in fractions and decimal; the pipeline imports it
    # only when an aggregate column varies
    code = (
        "import sys, cgprune.cli\n"
        "print(sorted({'statistics', 'fractions', 'decimal'} & sys.modules.keys()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=Path(cgprune.__file__).parent.parent,
    )
    assert out.stdout == "[]\n"
