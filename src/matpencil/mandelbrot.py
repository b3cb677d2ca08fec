"""Exact-integer Mandelbrot matrix family and its inverse-structure checks.

M_2 = [-1]; each level glues two copies of the previous one with three -1
entries, so that det(zI - M_n) is the recurrence polynomial p_n defined by
p_0 = 0, p_{n+1} = z p_n^2 + 1.  Everything in this module is integer-exact;
no floating point is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._exact import _as_exact, unit_hessenberg_det
# unused here; bench/spans.py patches this name
from ._exact import hessenberg_det  # noqa: F401
from .errors import ContractError, ResourceLimitError, VerificationError

#: highest level built (dim 8191); the int8 inverse at level 15 would take 256 MiB
MAX_LEVEL = 14
_VALIDATE_PRODUCT_UP_TO = 1024
#: rows per chunk where a whole-matrix scan would otherwise need a full-size
#: temporary (the nonzero mask in `charpoly_identity`, the zero-block check,
#: the product check)
_CHUNK_ROWS = 64

#: M_n, its inverse and the inverse's first column C and last row R are stored
#: as int8.  Their entries are -1/0/1, and `inverse_structure` checks that
#: bound before every level's arithmetic, so each product C R is in [-1, 1] and
#: each sum inv + C R in [-2, 2]: nothing wraps.  Callers cast before taking
#: integer products of their own (a row of M_n @ inverse sums up to dim terms).
_INT = np.int8


def mandelbrot_dim(n: int) -> int:
    return 2 ** (n - 1) - 1


@dataclass(eq=False)
class MandelbrotMatrix:
    n: int
    dim: int
    entries: np.ndarray
    triple_X: np.ndarray  # last unit row vector
    triple_Y: np.ndarray  # first unit column vector


def _check_level(n: int) -> None:
    if n < 2:
        raise ContractError("the family starts at level 2")
    if n > MAX_LEVEL:
        raise ResourceLimitError(f"level {n} exceeds the cap {MAX_LEVEL} (dim {mandelbrot_dim(n)})")


def mandelbrot_matrix(n: int) -> MandelbrotMatrix:
    """Build M_n exactly (entries 0 or -1, upper Hessenberg)."""
    _check_level(n)
    d = mandelbrot_dim(n)
    m = np.zeros((d, d), dtype=_INT)
    m[0, 0] = -1
    # M_{k+1} is the leading (2h + 1) square, h = dim M_k: two copies of the
    # leading h square (M_k) plus three glue entries
    for h in map(mandelbrot_dim, range(2, n)):
        m[h + 1:2 * h + 1, h + 1:2 * h + 1] = m[:h, :h]
        m[0, 2 * h] = -1        # -Y c0 X glue: top right corner
        m[h, h - 1] = -1        # -X glue row
        m[h + 1, h] = -1        # -Y glue column
    x = np.zeros((1, d), dtype=_INT)
    x[0, d - 1] = 1
    y = np.zeros((d, 1), dtype=_INT)
    y[0, 0] = 1
    return MandelbrotMatrix(n, d, m, x, y)


def mandelbrot_poly_at(n: int, z):
    """p_n(z) by the recurrence p_0 = 0, p_{k+1} = z p_k^2 + 1 (exact for exact z).

    A numpy integer z is taken as a Python int, so p_n does not wrap around.
    """
    if n < 0:
        raise ContractError("level must be non-negative")
    z = _as_exact(z)
    p = 0
    for _ in range(n):
        p = z * p * p + 1
    return p


def mandelbrot_poly_coeffs(n: int) -> list:
    """Exact integer coefficients of p_n, low-to-high."""
    if n < 0:
        raise ContractError("level must be non-negative")
    p = [0]
    for _ in range(n):
        sq = [0] * (2 * len(p) - 1)
        for i, a in enumerate(p):
            if a:
                for j, b in enumerate(p):
                    sq[i + j] += a * b
        p = [1] + sq  # z * p^2 + 1
        while len(p) > 1 and p[-1] == 0:
            p.pop()
    return p


def charpoly_identity(n: int, points) -> bool:
    """True iff det(zI - M_n) = p_n(z) exactly at every given point.

    The nonzeros of M_n are read once; zI - M_n must be upper Hessenberg with
    a +-1 subdiagonal, or VerificationError is raised.  Only its diagonal
    z - m_ii changes from point to point, and each determinant is taken by
    Hyman's method (`unit_hessenberg_det`): additions and products of one big
    integer with one entry, no division.  Numpy integer points are taken as
    Python ints; wide ints and Fractions are exact too.
    """
    _check_level(n)
    m = mandelbrot_matrix(n).entries
    d = len(m)
    # nonzeros a chunk of rows at a time, so the != 0 mask stays small
    flat = np.concatenate([start * d + np.flatnonzero(m[start:start + _CHUNK_ROWS] != 0)
                           for start in range(0, d, _CHUNK_ROWS)])
    r, c = np.divmod(flat, d)
    sub = m.diagonal(-1).astype(np.int64)
    if (r > c + 1).any() or (np.abs(sub) != 1).any():
        raise VerificationError(f"M_{n} is not upper Hessenberg with a -1/+1 subdiagonal")
    up = r < c
    upper = list(zip(r[up].tolist(), c[up].tolist(),
                     (-m[r[up], c[up]].astype(np.int64)).tolist()))
    sub, m_diag = (-sub).tolist(), m.diagonal().tolist()
    for z in map(_as_exact, points):
        if unit_hessenberg_det([z - a for a in m_diag], sub, upper) != mandelbrot_poly_at(n, z):
            return False
    return True


@dataclass(eq=False)
class InverseStructureReport:
    """Exact inverse of M_n with the block facts that make the family special."""

    n: int
    inverse: np.ndarray
    corner_value: int
    first_col: np.ndarray  # C_n
    last_row: np.ndarray   # R_n
    zero_block_ok: bool
    height1: bool


def inverse_structure(n: int) -> InverseStructureReport:
    """Exact inverse of M_n by the recursive block formula.

    Given inv = M_k^-1 with first column C and last row R, the next level is

        [[inv + C R,  C,  0      ],
         [-R,        -1,  R      ],
         [-C R,      -C,  inv + C R]]

    Every level is built in one preallocated dim x dim int8 buffer, whose
    top-left corner holds the current level's inv: the next level grows
    around it in place.  -C R is written once, into the lower-left block, and
    C R is added to inv in place by subtracting that block.  Before a level's
    arithmetic, inv, C and R are checked to lie in [-1, 1]
    (the inverse through the min/max of its block inv + C R, which with C, R,
    -C, -R, -C R, -1 and 0 makes up every entry), so no sum can wrap.  An
    inverse that leaves the range below the top level raises; at the top
    level the same min/max gives `height1`.

    The recursion is validated along the way: the extracted first column and
    last row must equal [0; 1; C] and [R, 1, 0], and for dimensions up to
    _VALIDATE_PRODUCT_UP_TO the product M_n @ inverse is checked to be the
    identity (exact int64 arithmetic, a chunk of rows at a time).  A failed
    check raises VerificationError.
    """
    _check_level(n)
    dim = mandelbrot_dim(n)
    buf = np.zeros((dim, dim), dtype=_INT)  # each level's inverse is its top-left corner
    buf[0, 0] = -1
    col = np.array([[-1]], dtype=_INT)
    row = np.array([[-1]], dtype=_INT)
    height1 = True  # every entry of inv lies in [-1, 1]
    for level in range(2, n):
        if not (height1 and _in_unit_range(col) and _in_unit_range(row)):
            raise VerificationError(f"the inverse of M_{level} has an entry outside [-1, 1]")
        d = len(col)
        e = 2 * d + 1
        # col and row are copies, so updating inv in place leaves them as they were
        block, minus_cr = buf[:d, :d], buf[d + 1:e, :d]
        np.multiply(np.negative(col), row, out=minus_cr)
        np.subtract(block, minus_cr, out=block)  # inv + C R
        buf[d + 1:e, d + 1:e] = block
        buf[:d, d:d + 1] = col
        np.negative(row, out=buf[d:d + 1, :d])
        buf[d, d] = -1
        buf[d, d + 1:e] = row
        np.negative(col, out=buf[d + 1:e, d:d + 1])
        height1 = _in_unit_range(block)
        new_col, new_row = buf[:e, :1], buf[e - 1:e, :e]
        expect_col = np.vstack([np.zeros((d, 1), dtype=_INT), [[1]], col])
        expect_row = np.hstack([row, [[1]], np.zeros((1, d), dtype=_INT)])
        if not (np.array_equal(new_col, expect_col) and np.array_equal(new_row, expect_row)):
            raise VerificationError(f"inverse recursion broke at level {level + 1}")
        col, row = new_col.copy(), new_row.copy()

    if dim <= _VALIDATE_PRODUCT_UP_TO and not _is_inverse(mandelbrot_matrix(n).entries, buf):
        raise VerificationError(f"M_{n} times its computed inverse is not the identity")
    corner = int(buf[dim - 1, 0])
    # zero block: the lower-left (1 + d_{n-1}) square of inv + C R vanishes,
    # i.e. there inv equals -C R
    blk = 1 + mandelbrot_dim(n - 1)
    zero_ok = _equals_minus_cr(buf[dim - blk:, :blk], col[dim - blk:], row[:, :blk])
    return InverseStructureReport(n, buf, corner, col, row, zero_ok, height1)


def _equals_minus_cr(block: np.ndarray, col: np.ndarray, row: np.ndarray) -> bool:
    """block == -col @ row, compared _CHUNK_ROWS rows at a time (no full-size temporary)."""
    minus_row = np.negative(row)
    for start in range(0, len(block), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        if not np.array_equal(block[rows], np.multiply(col[rows], minus_row)):
            return False
    return True


def _in_unit_range(a: np.ndarray) -> bool:
    return bool(a.min() >= -1 and a.max() <= 1)


def _is_inverse(m: np.ndarray, inv: np.ndarray) -> bool:
    """M @ inv == I, exactly: _CHUNK_ROWS rows of the product at a time, with
    one row operation per nonzero of M, and no full-size temporary.

    The rows accumulate in int64: a product of two int8 entries is at most
    2**14 in size, and a row sums at most dim of them, so nothing wraps.
    """
    dim = len(m)
    for start in range(0, dim, _CHUNK_ROWS):
        block = m[start:start + _CHUNK_ROWS]
        prod = np.zeros((len(block), dim), dtype=np.int64)
        rows, cols = np.nonzero(block)
        for i, j, v in zip(rows.tolist(), cols.tolist(), block[rows, cols].tolist()):
            prod[i] += v * inv[j].astype(np.int64)
        diag = np.arange(len(block))
        prod[diag, start + diag] -= 1  # M @ inv - I on these rows
        if prod.any():
            return False
    return True
