"""Names that README.md gives in backticks exist in src/matpencil/: each
private name (`_` then a letter, so the math `||M||_1` is no name) is
defined there, and each `<module>.<name>` of a matpencil module is bound at
the top level of that module; each test id of the "Reproducing the paper"
table names a test of its file; each key the JSON writers emit is quoted in
the "JSON formats" section.  Built on `ast` and the writers themselves; a
rename, deletion or new key that leaves README behind fails here."""

import ast
import re
from pathlib import Path

import numpy as np

import matpencil as mp
from matpencil import jsonio

ROOT = Path(__file__).resolve().parents[1]
MODULES = {path.stem: ast.parse(path.read_text())
           for path in sorted(Path(mp.__file__).parent.glob("*.py"))}
README = (ROOT / "README.md").read_text()
# inline code spans, with the fenced blocks taken out first
SPANS = re.findall(r"`([^`\n]+)`",
                   re.sub(r"```.*?```", "", README, flags=re.S))


def _bound(nodes) -> set[str]:
    """The names that `nodes` define: functions, classes, assigned names and
    imports."""
    names = set()
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


def test_every_private_name_in_readme_is_defined_in_src():
    defined = set(MODULES).union(*(_bound(ast.walk(tree)) for tree in MODULES.values()))
    named = {name for span in SPANS for name in re.findall(r"(?<!\w)_[A-Za-z]\w*", span)}
    assert sorted(named - defined) == []


def test_every_module_attribute_in_readme_is_bound_in_its_module():
    # the lookahead lets `matpencil.pencil.STACK_BYTES` yield both of its pairs
    pairs = {pair for span in SPANS for pair in re.findall(r"(?<!\w)(\w+)\.(?=(\w+))", span)}
    missing = [f"{module}.{name}" for module, name in sorted(pairs)
               if module in MODULES and name not in _bound(MODULES[module].body)]
    assert missing == []


def test_every_test_the_reproduction_table_names_exists():
    table = README.split("## Reproducing the paper")[1].split("\n## ")[0]
    ids = re.findall(r"`(tests/\w+\.py)::(\w+)`", table)
    assert len(ids) == 9
    missing = [f"{path}::{name}" for path, name in ids if not (ROOT / path).is_file()
               or name not in _bound(ast.parse((ROOT / path).read_text()).body)]
    assert missing == []


def _keys(value) -> set[str]:
    """Every object key in a JSON value, nested ones included."""
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys, value))
    return set()


def test_every_key_the_json_writers_emit_is_in_the_json_formats_section():
    section = README.split("## JSON formats")[1].split("\n## ")[0]
    poly = mp.MatPoly.lagrange_poly([0.0, 1.0], [-1.0, 1.0], np.stack([np.eye(2)] * 2))
    triple = mp.lagrange_triple(poly)
    assert triple.grade is not None and triple.pencil.block_meta
    emitted = set().union(*map(_keys, (jsonio.matpoly_to_json(poly),
                                       jsonio.pencil_to_json(triple.pencil),
                                       jsonio.triple_to_json(triple))))
    assert {"lagrange", "nodes", "block_meta", "blocks", "pencil", "grade"} <= emitted
    assert sorted(key for key in emitted if f'"{key}"' not in section) == []


def test_readme_stays_within_its_size_budget():
    # the contract fits in 16 KiB; mechanisms belong in docstrings and
    # measurement history in CHANGES.md
    assert len(README.encode()) <= 16_384
