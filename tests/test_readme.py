"""README's Layout block names real code: every `Class.attribute` it cites
exists in the package, and so does every underscored name it cites; and its
Quick start block runs."""

import re
from importlib import import_module
from pathlib import Path

import cgprune

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(cgprune.__file__).parent


def layout_block() -> str:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Layout\n\n```\n(.*?)^```", text, re.M | re.S)
    assert block is not None, "README has no Layout code block"
    return block.group(1)


def cited_attributes(text: str) -> list[tuple[str, str]]:
    """The `Class.attribute` pairs of `text`: a capitalised name, a dot and
    an identifier (so file names such as ``model.py`` are not cited)."""
    return re.findall(r"\b([A-Z]\w*)\.([A-Za-z_]\w*)\b", text)


def test_the_check_finds_class_attributes():
    text = "model.py  the index (CallGraph.predecessors, TypeHierarchy.children)\n"
    assert cited_attributes(text) == [
        ("CallGraph", "predecessors"), ("TypeHierarchy", "children"),
    ]


def test_every_cited_attribute_exists():
    cited = cited_attributes(layout_block())
    assert ("CallGraph", "predecessors") in cited
    namespaces = [vars(cgprune)] + [
        vars(import_module(f"cgprune.{p.stem}")) for p in sorted(PACKAGE.glob("*.py"))
    ]
    missing = []
    for cls, attr in cited:
        found = next((ns[cls] for ns in namespaces if cls in ns), None)
        if found is None or not hasattr(found, attr):
            missing.append(f"{cls}.{attr}")
    assert missing == []


def cited_names(text: str) -> list[str]:
    """The names of `text` that hold an underscore and are neither the
    attribute of a `Class.attribute` citation nor a file name."""
    return [
        name for name in re.findall(r"(?<![\w.])([A-Za-z_]\w*)(?!\w|\.py\b)", text)
        if "_" in name
    ]


def unbound_names(names: list[str]) -> list[str]:
    """The `names` that no module of the package binds at module level or
    in the body of one of its classes."""
    bound = set()
    for p in sorted(PACKAGE.glob("*.py")):
        module = vars(import_module(f"cgprune.{p.stem}"))
        bound.update(module)
        for value in module.values():
            if isinstance(value, type):
                bound.update(vars(value))
    return [name for name in names if name not in bound]


def test_the_check_finds_underscored_names():
    text = (
        "model.py  the cone walk (reflexive_descendants, descendant_cone) of\n"
        "          TypeHierarchy.descendant_cone and test_imports.py; _SCALARS\n"
    )
    names = cited_names(text)
    assert names == ["reflexive_descendants", "descendant_cone", "_SCALARS"]
    assert unbound_names(names) == ["reflexive_descendants"]


def test_every_cited_name_exists():
    cited = cited_names(layout_block())
    assert "component_masks" in cited
    assert unbound_names(cited) == []


def test_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Quick start\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert block is not None, "README has no Quick start Python block"
    exec(compile(block.group(1), "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert re.fullmatch(r"[1-9]\d* edges removed, \d+\.\d% of the graph\n", printed)
