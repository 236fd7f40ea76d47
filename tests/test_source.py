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
