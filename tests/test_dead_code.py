"""Dead code in src/: an import its module never uses, or a module-level
private function or class that nothing in the package refers to.  Built on
`ast` alone; a cleanup that leaves such a name behind fails here."""

import ast
from collections import Counter
from pathlib import Path

import matpencil as mp

SOURCES = {path.stem: path.read_text() for path in sorted(Path(mp.__file__).parent.glob("*.py"))}
MODULES = {module: ast.parse(text) for module, text in SOURCES.items()}


def _names(tree) -> list[str]:
    """Every name `tree` reads: bare names and attribute names."""
    return [node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]


def _is_shim(module: str, node) -> bool:
    # kept for bench/spans.py to patch, and tied to its PATCHES by
    # test_bench_spans.test_every_unused_import_in_src_is_patched_by_the_tracer
    return any("noqa: F401" in line
               for line in SOURCES[module].splitlines()[node.lineno - 1:node.end_lineno])


def test_every_import_in_src_is_used():
    unused = []
    for module, tree in MODULES.items():
        if module == "__init__":  # re-exports
            continue
        used = set(_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not _is_shim(module, node):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [f"{module}: {name}" for name in bound if name not in used]
    assert unused == []


def test_every_private_module_level_def_in_src_is_used():
    everywhere = [name for tree in MODULES.values() for name in _names(tree)]
    dead = []
    for module, tree in MODULES.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                own = _names(node).count(node.name)  # a recursive call is no use
                if everywhere.count(node.name) == own:
                    dead.append(f"{module}: {node.name}")
    assert dead == []


ROOT = Path(__file__).resolve().parents[1]


def _mentions(tree) -> list[str]:
    """`_names`, plus every string constant: monkeypatch and the tracer's
    patch table name an attribute by a string."""
    return _names(tree) + [node.value for node in ast.walk(tree)
                           if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def _public_defs(tree):
    """(name, node) of each public module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def test_every_public_module_level_name_in_src_is_used():
    # a name only __init__.py re-exports has no user; src/, tests/ and bench/ are searched
    reexports = ROOT / "src" / "matpencil" / "__init__.py"
    everywhere = Counter(name for top in ("src", "tests", "bench")
                         for path in (ROOT / top).rglob("*.py") if path != reexports
                         for name in _mentions(ast.parse(path.read_text())))
    unused = [f"{module}: {name}" for module, tree in MODULES.items() if module != "__init__"
              for name, node in _public_defs(tree)
              if everywhere[name] == _mentions(node).count(name)]
    assert unused == []



def _unread_params(node) -> list[str]:
    """The parameters of a function or lambda, but self and cls, that its
    body never reads."""
    args = node.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    body = node.body if isinstance(node, ast.FunctionDef) else [node.body]
    read = {name.id for stmt in body for name in ast.walk(stmt)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
    return [param.arg for param in params if param is not None
            and param.arg not in ("self", "cls") and param.arg not in read]


def test_every_parameter_in_src_is_read():
    # a dunder method keeps the signature of the protocol it implements
    unread = [f"{module}.{getattr(node, 'name', 'lambda')}: {param}"
              for module, tree in MODULES.items() for node in ast.walk(tree)
              if isinstance(node, ast.Lambda)
              or isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
              for param in _unread_params(node)]
    assert unread == []
