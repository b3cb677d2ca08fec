"""Dead code in src/: an import its module never uses, or a module-level
private function or class that nothing in the package refers to.  Built on
`ast` alone; a cleanup that leaves such a name behind fails here."""

import ast
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
