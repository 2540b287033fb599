"""Import hygiene: what the package's modules import, and what that costs."""

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
        classes = [c.body for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
        for stmt in chain(tree.body, *classes):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [
                f"{file}: {name} (line {stmt.lineno})" for name in names
                if name.startswith("_") and not name.endswith("__") and name not in read
            ]
    return unread


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
