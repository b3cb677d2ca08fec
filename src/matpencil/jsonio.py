"""JSON encoding of the package's value types and the composition-expression
format the CLI builds pencils from.

A real number is a plain JSON number, a complex one an [re, im] pair, and
a matrix a list of rows.  Arrays are read and written in `matpoly._common`'s
dtype, float64 unless a cell is a pair, so files round-trip their dtype.
"""

from __future__ import annotations

import json

import numpy as np

from . import constructions
from .eigensolve import EigenReport
from .errors import StructuralError
from .matpoly import LAGRANGE, CallablePoly, MatPoly, _common, eval_at
from .pencil import Pencil, StandardTriple


def _is_int(v) -> bool:
    """v is a JSON integer; Python's json reads true and false as bools, which
    are ints too."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, float) or _is_int(v)


def number_from_json(v) -> float | complex:
    """A number as a float, or an [re, im] pair as a complex; anything else,
    a boolean or an integer beyond float64's range among it, is malformed input."""
    try:
        if _is_real(v):
            return float(v)
        if isinstance(v, list) and len(v) == 2:
            re, im = v
            if _is_real(re) and _is_real(im):
                return complex(re, im)
    except OverflowError:
        raise StructuralError("a number lies beyond float64's range") from None
    raise StructuralError(f"expected a number or an [re, im] pair, got {v!r:.80}")


def matrix_to_json(arr) -> list:
    """A numeric array as nested lists, a complex entry as an [re, im] pair."""
    (arr,) = _common(np.asarray(arr))
    return (np.stack([arr.real, arr.imag], -1) if np.iscomplexobj(arr) else arr).tolist()


def _finite(arr: np.ndarray) -> np.ndarray:
    """arr, unless an entry is NaN or infinite (Python's json reads the
    non-standard tokens NaN and Infinity); one vectorized check per array."""
    if not np.isfinite(arr).all():
        raise StructuralError("the input holds a non-finite number (NaN or Infinity)")
    return arr


def matrix_from_json(rows) -> np.ndarray:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise StructuralError(f"expected a matrix as a list of rows, got {rows!r:.80}")
    if len({len(row) for row in rows}) > 1:
        raise StructuralError("matrix rows differ in length")
    return _finite(np.array([[number_from_json(x) for x in row] for row in rows]))


def vector_from_json(vals) -> np.ndarray:
    if not isinstance(vals, list):
        raise StructuralError(f"expected a list of numbers, got {vals!r:.80}")
    return _finite(np.array([number_from_json(x) for x in vals]))


def matpoly_to_json(p: MatPoly) -> dict:
    if p.kind == LAGRANGE:
        basis = {LAGRANGE: {"nodes": matrix_to_json(p.nodes), "weights": matrix_to_json(p.weights)}}
    else:
        basis = p.kind
    return {"basis": basis, "dim": p.dim, "grade": p.grade,
            "data": matrix_to_json(p.data)}


def _field(obj, key: str):
    """obj[key], with a missing key or a non-object reported as malformed input."""
    if not isinstance(obj, dict) or key not in obj:
        raise StructuralError(f"expected an object with key {key!r}, got {obj!r:.80}")
    return obj[key]


def _int_field(obj, key: str) -> int:
    """obj[key], which must be a JSON integer (not a float, not a boolean)."""
    value = _field(obj, key)
    if not _is_int(value):
        raise StructuralError(f"{key} must be an integer, got {value!r:.80}")
    return value


def matpoly_from_json(obj: dict) -> MatPoly:
    """A polynomial; its "dim" and "grade" must be JSON integers that agree
    with the shape of its "data"."""
    basis = _field(obj, "basis")
    mats = _field(obj, "data")
    if not isinstance(mats, list) or not mats:
        raise StructuralError(f"data must be a non-empty list of matrices, got {mats!r:.80}")
    mats = [matrix_from_json(m) for m in mats]
    if len({m.shape for m in mats}) > 1:
        raise StructuralError("data matrices differ in shape")
    data = np.stack(mats)
    if isinstance(basis, str):
        kind, nodes, weights = basis, None, None
    elif isinstance(basis, dict) and LAGRANGE in basis:
        kind, lag = LAGRANGE, basis[LAGRANGE]
        nodes, weights = (vector_from_json(_field(lag, key)) for key in ("nodes", "weights"))
    else:
        raise StructuralError(f"unknown basis {basis!r}")
    dim, grade = _int_field(obj, "dim"), _int_field(obj, "grade")
    if data.shape[1:] != (dim, dim):
        raise StructuralError(f"data must be a stack of {dim}x{dim} matrices, got {data.shape}")
    if len(data) != grade + 1:
        raise StructuralError(f"grade {grade} needs {grade + 1} matrices, got {len(data)}")
    return MatPoly(kind, data, nodes, weights)


def pencil_to_json(p: Pencil) -> dict:
    out = {"D": matrix_to_json(p.D), "A": matrix_to_json(p.A), "N": p.N}
    if p.block_meta:
        out["block_meta"] = p.block_meta
    return out


def pencil_from_json(obj: dict) -> Pencil:
    """A pencil; an optional "N" must be a JSON integer equal to D's size, and
    an optional "block_meta" an object whose optional "blocks" is a list of
    positive JSON integers that sum to N."""
    p = Pencil(matrix_from_json(_field(obj, "D")), matrix_from_json(_field(obj, "A")),
               obj.get("block_meta"))
    if "N" in obj and _int_field(obj, "N") != p.N:
        raise StructuralError(f"N is {obj['N']}, but D is {p.N}x{p.N}")
    meta = obj.get("block_meta", {})
    if not isinstance(meta, dict):
        raise StructuralError(f"block_meta must be an object, got {meta!r:.80}")
    blocks = meta.get("blocks", [p.N])  # absent, it claims nothing
    if (not isinstance(blocks, list) or not all(_is_int(b) and b > 0 for b in blocks)
            or sum(blocks) != p.N):
        raise StructuralError(f"block_meta blocks must be positive integers that sum "
                              f"to N = {p.N}, got {blocks!r:.80}")
    return p


def triple_to_json(t: StandardTriple) -> dict:
    out = {"X": matrix_to_json(t.X), "pencil": pencil_to_json(t.pencil),
           "Y": matrix_to_json(t.Y)}
    if t.grade is not None:
        out["grade"] = t.grade
    return out


def triple_from_json(obj: dict) -> StandardTriple:
    """A triple; an optional "grade" must be an integer.  A "weighted" key
    (older files' X (zD-A)^-1 D Y) is malformed input: fold D into Y."""
    if isinstance(obj, dict) and "weighted" in obj:
        raise StructuralError('a triple\'s "weighted" key is no longer read: '
                              'fold D into Y (Y <- D Y) and drop the key')
    return StandardTriple(matrix_from_json(_field(obj, "X")),
                          pencil_from_json(_field(obj, "pencil")),
                          matrix_from_json(_field(obj, "Y")),
                          _int_field(obj, "grade") if "grade" in obj else None)


def eigenreport_to_json(rep: EigenReport) -> dict:
    return {
        "finite": matrix_to_json(rep.finite),
        "infinite_count": rep.infinite_count,
        "residuals": [] if rep.residuals is None else [float(x) for x in rep.residuals],
        "shift": matrix_to_json(rep.shift_used),
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
    if op in ("product", "composite"):
        tb, pb = build_expression(_field(node, "b"))
    if op in ("shift_left", "shift_right", "composite"):
        d0, c0 = (matrix_from_json(_field(node, key)) for key in ("d0", "c0"))
    if op == "shift_left":
        t = constructions.scalar_shift_left(ta, d0, c0)
        fn = lambda z: z[..., None, None] * (d0 @ eval_at(pa, z)) + c0
    elif op == "shift_right":
        t = constructions.scalar_shift_right(ta, d0, c0)
        fn = lambda z: z[..., None, None] * (eval_at(pa, z) @ d0) + c0
    elif op == "add":
        c = matpoly_from_json(_field(node, "c"))
        t = constructions.add_lower_degree(ta, c)
        fn = lambda z: eval_at(pa, z) + eval_at(c, z)
    elif op == "product":
        t = constructions.product(ta, tb, node.get("variant", "F2"))
        fn = lambda z: eval_at(pa, z) @ eval_at(pb, z)
    elif op == "composite":
        t = constructions.composite(ta, tb, d0, c0)
        fn = lambda z: z[..., None, None] * (eval_at(pa, z) @ d0 @ eval_at(pb, z)) + c0
    else:
        raise StructuralError(f"unknown expression op {op!r}")
    return t, CallablePoly(t.r, t.grade, fn)
