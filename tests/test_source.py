"""Static checks on the package source, by the standard library's ast."""
import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads.  A name listed in the
    module's __all__ counts as read: that is how a package re-exports."""
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
    for node in ast.walk(tree):
        targets = getattr(node, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_check_flags_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Sequence, Iterable\n"
        "from .a import kept, exported\n"
        "__all__ = ['exported']\n"
        "def f(x: Iterable) -> None:\n"
        "    return kept(os.sep)\n"
    )
    assert unused_imports(source) == ["line 2: osp", "line 3: Sequence"]


def test_no_unused_imports_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)} {hit}"
             for path in files for hit in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "unused imports: " + "; ".join(found)


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes, and non-dunder methods, of the
    given modules (file name -> source) that none of them reads by name or
    attribute and no __all__ among them lists."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif any(isinstance(t, ast.Name) and t.id == "__all__"
                     for t in getattr(node, "targets", [])):
                used.update(ast.literal_eval(node.value))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            if node.name not in used:
                found.append(f"{name} line {node.lineno}: {node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{name} line {item.lineno}: {node.name}.{item.name}"
                          for item in node.body
                          if isinstance(item, defs[:2]) and item.name not in used
                          and not (item.name.startswith("__") and item.name.endswith("__"))]
    return found


def test_dead_definition_check_flags_what_it_should():
    sources = {
        "a.py": (
            "__all__ = ['exported']\n"
            "def exported():\n"
            "    return helper(Box().kept())\n"
            "def helper(x): ...\n"
            "def dead(): ...\n"
            "class Box:\n"
            "    def __init__(self): ...\n"
            "    def kept(self): ...\n"
            "    def unused(self): ...\n"
            "class Unused: ...\n"
        ),
        "b.py": "from a import helper\nhelper.__name__\ndef reader(): ...\n",
    }
    assert dead_definitions(sources) == [
        "a.py line 5: dead", "a.py line 9: Box.unused", "a.py line 10: Unused",
        "b.py line 3: reader",
    ]


def test_no_dead_definitions_in_src():
    sources = {str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
               for path in sorted(SRC.rglob("*.py"))}
    found = dead_definitions(sources)
    assert not found, "defined but never referenced: " + "; ".join(found)
