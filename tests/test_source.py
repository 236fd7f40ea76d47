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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _local_names(fn) -> set[str]:
    """Names that fn's parameters, and the defs in fn's own scope outside
    any nested scope, bind."""
    a = fn.args
    found = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
             if arg is not None}
    todo = [] if isinstance(fn, ast.Lambda) else list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, _DEFS):
            found.add(node.name)
        elif not isinstance(node, ast.Lambda):
            todo.extend(ast.iter_child_nodes(node))
    return found


def _reads(tree) -> set[str]:
    """Names and attributes tree reads, less each name that refers, where
    it is read, to a parameter or nested def of an enclosing function: a
    closure or argument named like a top-level def is not a use of it."""
    used = set()

    def visit(node, local):
        if isinstance(node, ast.Name) and node.id not in local:
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = local | _local_names(node)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return used


def dead_definitions(sources: dict[str, str], public: str = "rtsn/__init__.py") -> list[str]:
    """Top-level functions and classes, and non-dunder methods, of the
    given modules (file name -> source) that none of them reads by name or
    attribute and the public module's __all__ does not list.  Another
    module's __all__, a subpackage's re-exports, is no use: an op that only
    tests call is dead however it is exported."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for name, tree in trees.items():
        used |= _reads(tree)
        if name == public:
            for node in ast.walk(tree):
                if any(isinstance(t, ast.Name) and t.id == "__all__"
                       for t in getattr(node, "targets", [])):
                    used.update(ast.literal_eval(node.value))
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            if node.name not in used:
                found.append(f"{name} line {node.lineno}: {node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{name} line {item.lineno}: {node.name}.{item.name}"
                          for item in node.body
                          if isinstance(item, _DEFS[:2]) and item.name not in used
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
    assert dead_definitions(sources, public="a.py") == [
        "a.py line 5: dead", "a.py line 9: Box.unused", "a.py line 10: Unused",
        "b.py line 3: reader",
    ]


def test_dead_definition_check_counts_only_the_public_all():
    sources = {
        "pkg/__init__.py": "from .sub import public_op\n__all__ = ['public_op']\n",
        "pkg/sub/__init__.py": (
            "from .ops import public_op, test_only_op\n"
            "__all__ = ['public_op', 'test_only_op']\n"
        ),
        "pkg/sub/ops.py": "def public_op(): ...\ndef test_only_op(): ...\n",
    }
    assert dead_definitions(sources, public="pkg/__init__.py") == [
        "pkg/sub/ops.py line 2: test_only_op",
    ]


def test_dead_definition_check_sees_nested_closures():
    # A name read where an enclosing function nests a def of that name, or
    # takes a parameter of that name, refers to that, not to the top-level
    # def.
    sources = {
        "a.py": (
            "__all__ = ['op', 'outer', 'user', 'node']\n"
            "def backward(loss): ...\n"          # only locals share its name
            "def helper(): ...\n"
            "def caller(): ...\n"
            "def op(x):\n"
            "    def backward(g):\n"
            "        return helper()\n"          # read inside a closure: a use
            "    return backward\n"
            "def outer(x):\n"
            "    if x:\n"
            "        def caller(): ...\n"
            "    return lambda: caller()\n"      # outer's caller, in a lambda
            "def reader(): ...\n"
            "def user():\n"
            "    def other(): ...\n"
            "    return reader\n"                # no nested reader: a use
            "def node(data, backward=None):\n"
            "    return backward\n"              # the parameter
        ),
    }
    assert dead_definitions(sources, public="a.py") == [
        "a.py line 2: backward", "a.py line 4: caller",
    ]


def test_no_dead_definitions_in_src():
    sources = {str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
               for path in sorted(SRC.rglob("*.py"))}
    found = dead_definitions(sources)
    assert not found, "defined but never referenced: " + "; ".join(found)


def gradient_writes(source: str) -> list[str]:
    """Writes into the incoming gradient inside a backward closure (a
    function named backward nested in another function): augmented
    assignment to it or to a subscript of it, assignment to a subscript of
    it, or passing it, a subscript of it or a tuple holding one as out=.
    grads_for adopts the gradients closures return without a copy, and
    reshape's and concat's are views of the gradient they were given, so
    such a write could corrupt another node's gradient."""
    tree = ast.parse(source)

    def is_grad(node, name):
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Name) and node.id == name

    found = []
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name == "backward"
                and fn not in tree.body):
            continue
        name = fn.args.args[0].arg
        for node in ast.walk(fn):
            if isinstance(node, ast.AugAssign):
                hits = [node.target]
            elif isinstance(node, ast.Assign):
                hits = [t for t in node.targets if isinstance(t, ast.Subscript)]
            elif isinstance(node, ast.keyword) and node.arg == "out":
                hits = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
            else:
                continue
            if any(is_grad(t, name) for t in hits):
                found.append(f"line {node.lineno}: backward({name})")
    return found


def test_gradient_write_check_flags_what_it_should():
    source = (
        "import numpy as np\n"
        "def backward(loss):\n"
        "    loss += 1\n"                         # top level: not a closure
        "def op(x):\n"
        "    def backward(g):\n"
        "        g = g.reshape(-1)\n"             # rebinding the name is fine
        "        gx = g * 2\n"
        "        gx += g\n"                       # writing a fresh array is fine
        "        np.negative(g, out=gx)\n"
        "        g += 1\n"
        "        g[0] = 0\n"
        "        g[:, 1] *= 2\n"
        "        np.exp(gx, out=g[1:])\n"
        "        np.divmod(gx, 2, out=(gx, g))\n"
        "    def forward(g):\n"
        "        g += 1\n"                        # not a backward
        "    return backward\n"
    )
    assert gradient_writes(source) == [
        "line 10: backward(g)", "line 11: backward(g)", "line 12: backward(g)",
        "line 13: backward(g)", "line 14: backward(g)",
    ]


def test_backward_closures_never_write_into_their_gradient():
    files = sorted((SRC / "rtsn" / "neural").rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)} {hit}"
             for path in files for hit in gradient_writes(path.read_text(encoding="utf-8"))]
    assert not found, "backward writes into its incoming gradient: " + "; ".join(found)
