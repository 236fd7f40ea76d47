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


def imports_outside(sources: dict[str, str], modules: tuple[str, ...], home: str) -> list[str]:
    """Imports of the given top-level modules (or anything under them)
    anywhere but home, the one module that may use them."""
    found = []
    for name, source in sources.items():
        if name == home:
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported = [node.module]
            else:
                continue
            found += [f"{name} line {node.lineno}: {m}" for m in imported
                      if m.split(".")[0] in modules]
    return found


CONCURRENCY = ("threading", "concurrent")


def test_concurrency_import_check_flags_what_it_should():
    sources = {
        "home.py": "import threading\nfrom concurrent.futures import ThreadPoolExecutor\n",
        "a.py": (
            "import os, threading as th\n"
            "from concurrent import futures\n"
            "import concurrent.futures\n"
            "from .threading import local_module\n"   # a relative import: not it
            "import threadpoolctl\n"                  # another package
        ),
    }
    assert imports_outside(sources, CONCURRENCY, home="home.py") == [
        "a.py line 1: threading", "a.py line 2: concurrent", "a.py line 3: concurrent.futures",
    ]


def test_threads_are_started_only_by_the_layers():
    sources = {str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
               for path in sorted(SRC.rglob("*.py"))}
    assert "rtsn/neural/layers.py" in sources
    found = imports_outside(sources, CONCURRENCY, home="rtsn/neural/layers.py")
    assert not found, "concurrency outside neural/layers.py: " + "; ".join(found)


def test_binary_format_import_check_flags_what_it_should():
    sources = {
        "model.py": "import struct\n",
        "corpus.py": "import io, struct\n",
        "settings.py": "def f():\n    from struct import pack\n    return pack\n",
        "wav.py": "from .struct import local_module\nimport structlog\n",
    }
    assert imports_outside(sources, ("struct",), home="model.py") == [
        "corpus.py line 1: struct", "settings.py line 2: struct",
    ]


def test_struct_is_imported_only_by_the_checkpoint():
    # the checkpoint is the one binary format; every other file rtsn
    # writes is text or WAV
    sources = {str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
               for path in sorted(SRC.rglob("*.py"))}
    assert "import struct" in sources["rtsn/model.py"]
    found = imports_outside(sources, ("struct",), home="rtsn/model.py")
    assert not found, "struct outside model.py: " + "; ".join(found)


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


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes (_name) of the given
    modules that no code in them reads outside the definition itself: one
    that only its own body, or only the tests, read is dead."""
    nodes = [(name, node) for name, source in sources.items()
             for node in ast.parse(source).body]
    reads = [_reads(node) for _, node in nodes]
    return [f"{name} line {node.lineno}: {node.name}"
            for i, (name, node) in enumerate(nodes)
            if isinstance(node, _DEFS) and node.name.startswith("_")
            and not node.name.startswith("__")
            and not any(node.name in r for j, r in enumerate(reads) if j != i)]


def test_unread_private_check_flags_what_it_should():
    sources = {
        "a.py": (
            "def _used(): ...\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"   # only its own body reads it
            "def _dead(): ...\n"
            "class _Box:\n"
            "    def make(self):\n"
            "        return _Box()\n"          # the same, for a class
            "def _imported(): ...\n"
            "def _shadowed(): ...\n"
            "def public(_shadowed):\n"
            "    return _used(_shadowed)\n"    # the parameter, not the def
            "def __getattr__(name): ...\n"     # a dunder is not private
            "def unread(): ...\n"              # public: the dead-definition check's
        ),
        "b.py": "from a import _imported\nVALUE = _imported()\n",
    }
    assert unread_private_definitions(sources) == [
        "a.py line 2: _recursive", "a.py line 4: _dead", "a.py line 5: _Box",
        "a.py line 9: _shadowed",
    ]


def test_every_private_definition_in_src_is_read():
    sources = {str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
               for path in sorted(SRC.rglob("*.py"))}
    found = unread_private_definitions(sources)
    assert not found, "private definitions src never reads: " + "; ".join(found)



def constructor_calls(sources: dict[str, str], cls: str = "RtsnParams",
                      home: tuple[str, str] = ("rtsn/model.py", "_assemble")) -> list[str]:
    """Calls of cls, by name or attribute, anywhere but inside the
    top-level function home names (module, function): the one place that
    checks what it builds."""
    found = []
    for name, source in sources.items():
        for top in ast.parse(source).body:
            if (name, getattr(top, "name", None)) == home:
                continue
            found += [f"{name} line {node.lineno}: {cls}(" for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and cls in (getattr(node.func, "id", None),
                                  getattr(node.func, "attr", None))]
    return found


def test_constructor_check_flags_what_it_should():
    sources = {
        "home.py": (
            "def build(x):\n"
            "    return Params(x)\n"                    # the one constructor
            "def other(x):\n"
            "    return Params(x)\n"
            "class Params:\n"
            "    def copy(self):\n"
            "        return build(self)\n"              # through build: fine
            "    def clone(self):\n"
            "        return Params(self)\n"
            "    def nested(self):\n"
            "        def build(x):\n"                   # not the top-level build
            "            return Params(x)\n"
            "        return build(self)\n"
        ),
        "user.py": (
            "import home\n"
            "from home import Params\n"
            "a = home.Params(1)\n"
            "b = Params\n"                              # named, not called
            "c = ParamsLike(2)\n"                       # another name
        ),
    }
    assert constructor_calls(sources, cls="Params", home=("home.py", "build")) == [
        "home.py line 4: Params(", "home.py line 9: Params(", "home.py line 12: Params(",
        "user.py line 3: Params(",
    ]


def test_models_are_built_only_by_assemble():
    sources = {str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
               for path in sorted(SRC.rglob("*.py"))}
    assert "rtsn/model.py" in sources
    found = constructor_calls(sources)
    assert not found, "RtsnParams built outside model._assemble: " + "; ".join(found)

def _loaded_names(nodes) -> set[str]:
    """Names the nodes load, less each load inside a nested function that
    rebinds the name as a parameter or def of its own."""
    loads = set()

    def visit(node, local):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id not in local:
            loads.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = local | _local_names(node)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    for node in nodes:
        visit(node, frozenset())
    return loads


def unread_parameters(source: str) -> list[str]:
    """Parameters of the functions and lambdas in source that their body
    never loads (_loaded_names): a load in a closure counts."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        loads = _loaded_names([fn.body] if isinstance(fn, ast.Lambda) else fn.body)
        a = fn.args
        found += [f"line {fn.lineno}: {getattr(fn, 'name', 'lambda')}({arg.arg})"
                  for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                  if arg is not None and arg.arg not in loads]
    return found


def test_unread_parameter_check_flags_what_it_should():
    source = (
        "def f(a, b, *args, c, d=1, **kw):\n"
        "    b = 2\n"                          # only stored
        "    return a, d, kw\n"
        "def outer(x, y):\n"
        "    def inner(y):\n"
        "        return x, y\n"                # x read in a closure; inner's own y
        "    return inner\n"
        "class Box:\n"
        "    def method(self, unused):\n"
        "        return self.unused\n"         # an attribute, not the parameter
        "    def stub(self): ...\n"
        "g = lambda u, v: u\n"
    )
    assert unread_parameters(source) == [
        "line 1: f(b)", "line 1: f(c)", "line 1: f(args)", "line 4: outer(y)",
        "line 9: method(unused)", "line 11: stub(self)", "line 12: lambda(v)",
    ]


# Parameters src may leave unread, with the reason each is kept.
UNREAD_PARAMETERS_KEPT = {
    # bench/workloads.py passes lookahead positionally; it goes with the
    # next change to the benchmark
    "rtsn/trainer.py": ["load_utterances(lookahead)"],
}


def test_every_parameter_in_src_is_read():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        kept = UNREAD_PARAMETERS_KEPT.get(name, [])
        found += [f"{name} {hit}" for hit in unread_parameters(path.read_text(encoding="utf-8"))
                  if hit.split(": ", 1)[1] not in kept]
    assert not found, "parameters never read: " + "; ".join(found)


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


# The one read of the process environment and the one write: the worker
# count (RTSN_THREADS) and the CLI's pin of the BLAS thread pools to one
# thread.  Anything else would be a switch the config file does not show.
ENVIRONMENT_USES_KEPT = (("rtsn/neural/layers.py", "_worker_count", "read"),
                         ("rtsn/cli.py", "<module>", "write"))
_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
_ENVIRONMENT_WRITES = {"putenv", "unsetenv", "setdefault", "update", "pop", "popitem",
                       "clear"}


def environment_uses(sources: dict[str, str], kept=ENVIRONMENT_USES_KEPT) -> list[str]:
    """Reads and writes of the process environment (os.environ, os.getenv
    and their kin, by attribute or imported name) outside the (module,
    top-level def or <module>, read or write) uses kept allows.  A use is a
    write when it calls putenv or unsetenv, calls a mutating method of the
    mapping, or stores into or deletes a key; any other use reads."""
    found = []
    for name, source in sources.items():
        for top in ast.parse(source).body:
            scope = getattr(top, "name", "<module>")
            parent = {child: node for node in ast.walk(top)
                      for child in ast.iter_child_nodes(node)}
            for node in ast.walk(top):
                ref = (node.attr if isinstance(node, ast.Attribute)
                       else node.id if isinstance(node, ast.Name) else None)
                if ref not in _ENVIRONMENT:
                    continue
                up = parent.get(node)
                write = (ref in _ENVIRONMENT_WRITES
                         or isinstance(up, ast.Attribute) and up.attr in _ENVIRONMENT_WRITES
                         or isinstance(up, ast.Subscript) and not isinstance(up.ctx, ast.Load))
                use = "write" if write else "read"
                if (name, scope, use) not in kept:
                    found.append(f"{name} line {node.lineno}: {use} in {scope}")
    return found


def test_environment_check_flags_what_it_should():
    sources = {
        "a.py": (
            "import os\n"
            "from os import environ, getenv\n"       # importing is no use
            "for v in ('A', 'B'):\n"
            "    os.environ.setdefault(v, '1')\n"    # the kept write
            "X = os.environ.get('X')\n"
            "def count():\n"
            "    return os.environ.get('N')\n"       # the kept read
            "def knob():\n"
            "    os.environ['N'] = '2'\n"
            "    del environ['N']\n"
            "    return getenv('K'), 'K' in os.environ\n"
            "class C:\n"
            "    def f(self):\n"
            "        os.putenv('P', '1')\n"
            "        return os.environ['Q']\n"
            "environment = {}\n"                     # another name
        ),
    }
    kept = (("a.py", "count", "read"), ("a.py", "<module>", "write"))
    assert environment_uses(sources, kept) == [
        "a.py line 5: read in <module>",
        "a.py line 9: write in knob", "a.py line 10: write in knob",
        "a.py line 11: read in knob", "a.py line 11: read in knob",
        "a.py line 14: write in C", "a.py line 15: read in C",
    ]


def test_environment_is_read_only_for_the_worker_count():
    sources = {str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
               for path in sorted(SRC.rglob("*.py"))}
    found = environment_uses(sources)
    assert not found, "environment used outside the worker count and the BLAS pin: " \
        + "; ".join(found)
