"""README's Layout block names real code: every `Class.attribute` it cites
exists in the package."""

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
