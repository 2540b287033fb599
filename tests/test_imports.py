"""Import hygiene: what the package's modules import, and what that costs."""

import ast
import subprocess
import sys
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
