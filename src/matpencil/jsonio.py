"""JSON encoding of the package's value types and the composition-expression
format the CLI builds pencils from.

Complex numbers are [re, im] pairs; matrices are row-major (a list of rows).
"""

from __future__ import annotations

import json

import numpy as np

from . import constructions
from .eigensolve import EigenReport
from .errors import StructuralError
from .matpoly import CallablePoly, BasisSpec, MatPoly, eval_at
from .pencil import Pencil, StandardTriple


def complex_to_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


_REAL = (int, float)


def complex_from_json(v) -> complex:
    """A number or an [re, im] pair; anything else is malformed input."""
    if isinstance(v, _REAL):
        return complex(v)
    if isinstance(v, list) and len(v) == 2:
        re, im = v
        if isinstance(re, _REAL) and isinstance(im, _REAL):
            return complex(re, im)
    raise StructuralError(f"expected a number or an [re, im] pair, got {v!r:.80}")


def matrix_to_json(mat) -> list:
    return [[complex_to_json(x) for x in row] for row in np.asarray(mat, dtype=complex)]


def matrix_from_json(rows) -> np.ndarray:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise StructuralError(f"expected a matrix as a list of rows, got {rows!r:.80}")
    if len({len(row) for row in rows}) > 1:
        raise StructuralError("matrix rows differ in length")
    return np.array([[complex_from_json(x) for x in row] for row in rows], dtype=complex)


def vector_from_json(vals) -> np.ndarray:
    if not isinstance(vals, list):
        raise StructuralError(f"expected a list of numbers, got {vals!r:.80}")
    return np.array([complex_from_json(x) for x in vals], dtype=complex)


def matpoly_to_json(p: MatPoly) -> dict:
    if p.basis.kind == "lagrange":
        basis = {"lagrange": {"nodes": [complex_to_json(z) for z in p.basis.nodes],
                              "weights": [complex_to_json(z) for z in p.basis.weights]}}
    else:
        basis = p.basis.kind
    return {"basis": basis, "dim": p.dim, "grade": p.grade,
            "data": [matrix_to_json(m) for m in p.data]}


def _field(obj, key: str):
    """obj[key], with a missing key or a non-object reported as malformed input."""
    if not isinstance(obj, dict) or key not in obj:
        raise StructuralError(f"expected an object with key {key!r}, got {obj!r:.80}")
    return obj[key]


def _int_field(obj, key: str) -> int:
    """obj[key], which must be a JSON integer (not a float, not a boolean)."""
    value = _field(obj, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise StructuralError(f"{key} must be an integer, got {value!r:.80}")
    return value


def matpoly_from_json(obj: dict) -> MatPoly:
    basis = _field(obj, "basis")
    mats = _field(obj, "data")
    if not isinstance(mats, list) or not mats:
        raise StructuralError(f"data must be a non-empty list of matrices, got {mats!r:.80}")
    mats = [matrix_from_json(m) for m in mats]
    if len({m.shape for m in mats}) > 1:
        raise StructuralError("data matrices differ in shape")
    data = np.stack(mats)
    if isinstance(basis, str):
        spec = BasisSpec(basis)
    elif isinstance(basis, dict) and "lagrange" in basis:
        lag = basis["lagrange"]
        spec = BasisSpec.lagrange(vector_from_json(_field(lag, "nodes")),
                                  vector_from_json(_field(lag, "weights")))
    else:
        raise StructuralError(f"unknown basis {basis!r}")
    return MatPoly(spec, _int_field(obj, "dim"), _int_field(obj, "grade"), data)


def pencil_to_json(p: Pencil) -> dict:
    out = {"D": matrix_to_json(p.D), "A": matrix_to_json(p.A), "N": p.N}
    if p.block_meta:
        out["block_meta"] = p.block_meta
    return out


def pencil_from_json(obj: dict) -> Pencil:
    return Pencil(matrix_from_json(_field(obj, "D")), matrix_from_json(_field(obj, "A")),
                  obj.get("block_meta"))


def triple_to_json(t: StandardTriple) -> dict:
    out = {"X": matrix_to_json(t.X), "pencil": pencil_to_json(t.pencil),
           "Y": matrix_to_json(t.Y)}
    if t.grade is not None:
        out["grade"] = t.grade
    return out


def triple_from_json(obj: dict) -> StandardTriple:
    """A triple; an optional "weighted": true (resolvent X (zD-A)^-1 D Y, a form
    older files carry) is read as the same resolvent with Y replaced by D Y."""
    t = StandardTriple(matrix_from_json(_field(obj, "X")),
                       pencil_from_json(_field(obj, "pencil")),
                       matrix_from_json(_field(obj, "Y")), obj.get("grade"))
    weighted = obj.get("weighted", False)
    if not isinstance(weighted, bool):
        raise StructuralError(f"weighted must be true or false, got {weighted!r:.80}")
    if weighted:
        t.Y = t.pencil.D @ t.Y
    return t


def eigenreport_to_json(rep: EigenReport) -> dict:
    return {
        "finite": [complex_to_json(z) for z in rep.finite],
        "infinite_count": rep.infinite_count,
        "residuals": [] if rep.residuals is None else [float(x) for x in rep.residuals],
        "shift": complex_to_json(rep.shift_used),
        "backend": rep.backend,
    }


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------------------
# composition expressions
# ----------------------------------------------------------------------------

_LEAVES = {"frobenius": constructions.frobenius_triple,
           "lagrange": constructions.lagrange_triple,
           "chebyshev": constructions.chebyshev_triple}


def build_expression(node: dict):
    """Build (StandardTriple, polynomial) from a composition-expression node.

    Leaves are {"frobenius"|"lagrange"|"chebyshev": <matpoly>}; interior nodes
    carry "op" in {composite, product, shift_left, shift_right, add} with
    child expressions under "a"/"b" and constant matrices under "d0"/"c0"/"c".
    The returned polynomial evaluates the same composition, at one point or a
    stack of points, for verification.
    """
    if not isinstance(node, dict):
        raise StructuralError(f"expression node must be an object, got {node!r:.80}")
    for name, builder in _LEAVES.items():
        if name in node:
            p = matpoly_from_json(node[name])
            return builder(p), p
    op = node.get("op")
    if op is None:
        raise StructuralError(f"expression node has no op or leaf: {list(node)}")
    ta, pa = build_expression(_field(node, "a"))
    if op in ("shift_left", "shift_right"):
        d0 = matrix_from_json(_field(node, "d0"))
        c0 = matrix_from_json(_field(node, "c0"))
        if op == "shift_left":
            t = constructions.scalar_shift_left(ta, d0, c0)
            fn = lambda z: z[..., None, None] * (d0 @ eval_at(pa, z)) + c0
        else:
            t = constructions.scalar_shift_right(ta, d0, c0)
            fn = lambda z: z[..., None, None] * (eval_at(pa, z) @ d0) + c0
        return t, CallablePoly(ta.r, pa.grade + 1, fn)
    if op == "add":
        c = matpoly_from_json(_field(node, "c"))
        t = constructions.add_lower_degree(ta, c)
        fn = lambda z: eval_at(pa, z) + eval_at(c, z)
        return t, CallablePoly(ta.r, pa.grade, fn)
    tb, pb = build_expression(_field(node, "b"))
    if op == "product":
        t = constructions.product(ta, tb, node.get("variant", "F2"))
        fn = lambda z: eval_at(pa, z) @ eval_at(pb, z)
        return t, CallablePoly(ta.r, pa.grade + pb.grade, fn)
    if op == "composite":
        d0 = matrix_from_json(_field(node, "d0"))
        c0 = matrix_from_json(_field(node, "c0"))
        t = constructions.composite(ta, tb, d0, c0)
        fn = lambda z: z[..., None, None] * (eval_at(pa, z) @ d0 @ eval_at(pb, z)) + c0
        return t, CallablePoly(ta.r, pa.grade + pb.grade + 1, fn)
    raise StructuralError(f"unknown expression op {op!r}")
