"""Every input check ends in a typed error from `matpencil.errors`."""

import ast
from pathlib import Path

import numpy as np
import pytest

import matpencil as mp
from matpencil import constructions, errors, jsonio
from matpencil.errors import ContractError, StructuralError
from matpencil.matpoly import NonzeroMatrix, _as_stack


def _mono(r, grade):
    return mp.MatPoly.monomial_poly(np.stack([np.eye(r)] * (grade + 1)))


def _cheb(r, grade):
    return mp.MatPoly.chebyshev_poly(np.stack([np.eye(r)] * (grade + 1)))


def _triple(r, grade=1):
    return mp.frobenius_triple(_mono(r, grade))


def _regraded(grade):
    t = _triple(1)
    return mp.StandardTriple(t.X, t.pencil, t.Y, grade=grade)


_LEAF = {"frobenius": jsonio.matpoly_to_json(_mono(1, 1))}

# (id, call, expected error type, message pattern)
_CHECKS = [
    ("square", lambda: constructions._square(np.eye(3), 2, "d0"), StructuralError, "d0 must be 2x2"),
    ("square_list", lambda: mp.composite(_triple(2), _triple(2), [[1, 0]], np.eye(2)),
     StructuralError, r"d0 must be 2x2, got \(1, 2\)"),
    ("square_ragged", lambda: mp.composite(_triple(2), _triple(2), [[1, 2], [3]], np.eye(2)),
     StructuralError, "d0 must be 2x2, got ragged rows"),
    ("square_held", lambda: mp.scalar_shift_left(_triple(2), np.eye(2),
                                                 NonzeroMatrix.from_dense(np.eye(3))),
     StructuralError, r"c0 must be 2x2, got \(3, 3\)"),
    ("product_r", lambda: mp.product(_triple(1), _triple(2)), StructuralError, "share"),
    ("product_variant", lambda: mp.product(_triple(1), _triple(1), "F3"), ContractError,
     "variant"),
    ("add_basis", lambda: mp.add_lower_degree(_triple(1, 2), _cheb(1, 1)), ContractError,
     "monomial"),
    ("add_no_grade", lambda: mp.add_lower_degree(_regraded(None), _mono(1, 0)), ContractError,
     "grade"),
    ("add_grade_0", lambda: mp.add_lower_degree(_regraded(0), _mono(1, 0)), ContractError,
     "grade-0"),
    ("add_dim", lambda: mp.add_lower_degree(_triple(1, 2), _mono(2, 1)), StructuralError,
     "dimension"),
    ("composite_r", lambda: mp.composite(_triple(1), _triple(2), np.eye(1), np.eye(1)),
     StructuralError, "share"),
    ("frobenius_basis", lambda: mp.frobenius_triple(_cheb(1, 1)), ContractError, "monomial"),
    ("lagrange_basis", lambda: mp.lagrange_triple(_mono(1, 1)), ContractError, "lagrange"),
    ("chebyshev_basis", lambda: mp.chebyshev_triple(_mono(1, 1)), ContractError, "chebyshev"),
    ("eigen_backend", lambda: mp.generalized_eigen(_triple(1).pencil, backend="lu"),
     ContractError, "backend"),
    ("vector_json", lambda: jsonio.vector_from_json("1, 2"), StructuralError, "list of numbers"),
    ("matpoly_json_basis",
     lambda: jsonio.matpoly_from_json({"basis": 5, "dim": 1, "grade": 0, "data": [[[1]]]}),
     StructuralError, "unknown basis"),
    ("expr_not_object", lambda: jsonio.build_expression([_LEAF]), StructuralError, "object"),
    ("expr_no_op", lambda: jsonio.build_expression({"a": _LEAF}), StructuralError, "no op"),
    ("expr_unknown_op", lambda: jsonio.build_expression({"op": "sum", "a": _LEAF, "b": _LEAF}),
     StructuralError, "unknown expression op"),
    ("poly_at_level", lambda: mp.mandelbrot_poly_at(-1, 2), ContractError, "non-negative"),
    ("poly_coeffs_level", lambda: mp.mandelbrot_poly_coeffs(-1), ContractError, "non-negative"),
    ("scalar_roots_non_finite", lambda: mp.scalar_roots([1.0, np.nan, 1.0]), ContractError,
     "non-finite"),
    ("basis_kind", lambda: mp.MatPoly("hermite", np.zeros((1, 1, 1))), StructuralError,
     "unknown basis kind"),
    ("basis_lagrange_data", lambda: mp.MatPoly("lagrange", np.zeros((1, 1, 1))), StructuralError,
     "nodes and weights"),
    ("basis_counts", lambda: mp.MatPoly.lagrange_poly([0, 1], [1], np.zeros((2, 1, 1))),
     StructuralError, "count"),
    ("basis_distinct", lambda: mp.MatPoly.lagrange_poly([1, 1], [1, 1], np.zeros((2, 1, 1))),
     StructuralError, "distinct"),
    ("weights_distinct", lambda: mp.barycentric_weights([0.0, 1.0, 1.0]), StructuralError,
     "lagrange nodes must be pairwise distinct"),
    ("basis_no_nodes", lambda: mp.MatPoly("monomial", np.zeros((1, 1, 1)), nodes=np.zeros(2)),
     StructuralError, "takes no nodes"),
    ("as_stack", lambda: _as_stack(np.zeros((2, 2, 3))), StructuralError, "square"),
    ("pencil_square", lambda: mp.Pencil(np.zeros((2, 3)), np.zeros((2, 3))), StructuralError,
     "D must be square"),
    ("pencil_shape", lambda: mp.Pencil(np.eye(2), np.eye(3)), StructuralError, "same"),
    ("triple_x", lambda: mp.StandardTriple(np.eye(3), mp.Pencil(np.eye(2), np.eye(2)), np.eye(2)),
     StructuralError, "X must have 2 columns"),
    ("triple_y", lambda: mp.StandardTriple(np.eye(2), mp.Pencil(np.eye(2), np.eye(2)), np.eye(3)),
     StructuralError, "Y must have 2 rows"),
    ("triple_r", lambda: mp.StandardTriple(np.ones((1, 2)), mp.Pencil(np.eye(2), np.eye(2)),
                                           np.eye(2)), StructuralError, "disagree"),
]


@pytest.mark.parametrize("call, error, match", [c[1:] for c in _CHECKS],
                         ids=[c[0] for c in _CHECKS])
def test_input_check_raises_its_typed_error(call, error, match):
    with pytest.raises(error, match=match):
        call()


def _raised_names(tree):
    """(enclosing qualified name, raised type name) of every `raise X` or
    `raise X(...)` in a module; a bare re-raise names nothing and is skipped."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                found.append((scope, exc.attr if isinstance(exc, ast.Attribute) else exc.id))
            visit(child, scope)

    visit(tree, "")
    return found


# raises that are not input checks: argparse's exit code, and numpy's
# __array__(copy=False) protocol, which expects a ValueError
_ALLOWED = {("cli.py", "_Parser.error", "SystemExit"), ("cli.py", "", "SystemExit"),
            ("matpoly.py", "NonzeroMatrix.__array__", "ValueError")}


def test_every_raise_in_the_package_names_a_type_from_errors():
    typed = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, Exception)}
    seen = set()
    for path in sorted(Path(mp.__file__).parent.glob("*.py")):
        for scope, name in _raised_names(ast.parse(path.read_text())):
            seen.add(name)
            if name not in typed:
                assert (path.name, scope, name) in _ALLOWED, f"{path.name}: {scope} raises {name}"
    assert {"ContractError", "StructuralError", "VerificationError"} <= seen
