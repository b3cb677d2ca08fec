"""Names that README.md gives in backticks exist in src/matpencil/: each
private name (`_` then a letter, so the math `||M||_1` is no name) is
defined there, and each `<module>.<name>` of a matpencil module is bound at
the top level of that module; each test id of the "Reproducing the paper"
table names a test of its file.  Built on `ast`; a rename or deletion that
leaves README behind fails here."""

import ast
import re
from pathlib import Path

import matpencil as mp

ROOT = Path(__file__).resolve().parents[1]
MODULES = {path.stem: ast.parse(path.read_text())
           for path in sorted(Path(mp.__file__).parent.glob("*.py"))}
# inline code spans, with the fenced blocks taken out first
SPANS = re.findall(r"`([^`\n]+)`",
                   re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S))


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
    table = (ROOT / "README.md").read_text().split("## Reproducing the paper")[1].split("\n## ")[0]
    ids = re.findall(r"`(tests/\w+\.py)::(\w+)`", table)
    assert len(ids) == 9
    missing = [f"{path}::{name}" for path, name in ids if not (ROOT / path).is_file()
               or name not in _bound(ast.parse((ROOT / path).read_text()).body)]
    assert missing == []
