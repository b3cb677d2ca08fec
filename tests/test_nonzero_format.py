"""The nonzero format of `matpoly.NonzeroMatrix` (sorted flat keys
row * ncols + col, no stored zero) is built and read in `matpoly` alone, and
in `mandelbrot`, whose inverse recursion keys every level at the final
stride.  Every other module of src/matpencil/ goes through `summed`,
`from_dense`, `_entries` and `_is_identity`: it reads no `.keys` attribute
(a call such as `dict.keys()` is no read of the format) and calls no
`NonzeroMatrix(...)`.  Built on `ast` alone."""

import ast
from pathlib import Path

import pytest

import matpencil as mp

OWNERS = {"matpoly", "mandelbrot"}
MODULES = {path.stem: ast.parse(path.read_text())
           for path in sorted(Path(mp.__file__).parent.glob("*.py"))}


def _format_uses(tree) -> list[str]:
    """Line and text of each `.keys` read that is not the callee of a call,
    and each direct call of `NonzeroMatrix`."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "keys" and id(node) not in called:
            uses.append(f"{node.lineno}: .keys")
        if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "NonzeroMatrix"
                or getattr(node.func, "attr", None) == "NonzeroMatrix"):
            uses.append(f"{node.lineno}: NonzeroMatrix(...)")
    return uses


def test_only_matpoly_and_mandelbrot_touch_the_key_format():
    assert OWNERS <= set(MODULES)
    found = [f"{module}:{use}" for module, tree in MODULES.items() if module not in OWNERS
             for use in _format_uses(tree)]
    assert found == []


@pytest.mark.parametrize("source, uses", [
    ("rows = m.keys // n", 1),
    ("keys = m.keys[stored]", 1),
    ("f(m.keys)", 1),
    ("m = NonzeroMatrix(shape, keys, values)", 1),
    ("m = matpoly.NonzeroMatrix(shape, keys, values)", 1),
    ("for k in d.keys(): pass", 0),
    ("m = NonzeroMatrix.summed(shape, keys, values)", 0),
    ("m = NonzeroMatrix.from_dense(a)", 0),
    ("rows, cols, vals = _entries(m)", 0),
    ("s = json.dumps(obj, sort_keys=True)", 0),
])
def test_the_lint_sees_each_use(source, uses):
    assert len(_format_uses(ast.parse(source))) == uses
