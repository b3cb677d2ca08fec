"""Exact-integer Mandelbrot matrix family and its inverse-structure checks.

M_2 = [-1]; each level glues two copies of the previous one with three -1
entries, so that det(zI - M_n) is the recurrence polynomial p_n defined by
p_0 = 0, p_{n+1} = z p_n^2 + 1.  Everything in this module is integer-exact;
no floating point is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._exact import hessenberg_det
from .errors import ContractError, ResourceLimitError, VerificationError

#: highest level built (dim 8191); the int8 inverse at level 15 would take 256 MiB
MAX_LEVEL = 14
_VALIDATE_PRODUCT_UP_TO = 1024

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


def mandelbrot_matrix(n: int) -> MandelbrotMatrix:
    """Build M_n exactly (entries 0 or -1, upper Hessenberg)."""
    if n < 2:
        raise ContractError("the family starts at level 2")
    if n > MAX_LEVEL:
        raise ResourceLimitError(f"level {n} exceeds the cap {MAX_LEVEL} (dim {mandelbrot_dim(n)})")
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
    """p_n(z) by the recurrence p_0 = 0, p_{k+1} = z p_k^2 + 1 (exact for exact z)."""
    if n < 0:
        raise ContractError("level must be non-negative")
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
    """True iff det(zI - M_n) = p_n(z) exactly at every given integer point."""
    if n < 2:
        raise ContractError("the family starts at level 2")
    m = mandelbrot_matrix(n).entries
    diag = np.arange(m.shape[0])
    for z in points:
        # zI - M has entries 0/1 off the diagonal and z or z + 1 on it; other
        # points (wide ints, Fractions) go through Python objects
        small = isinstance(z, int) and -128 <= z <= 126
        h = np.negative(m, dtype=np.int8 if small else object)
        h[diag, diag] += z
        if hessenberg_det(h) != mandelbrot_poly_at(n, z):
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

    Each level is written straight into the slices of the next one, in int8:
    before a level's arithmetic, inv, C and R are checked to lie in [-1, 1]
    (the inverse through the min/max of its block inv + C R, which with C, R,
    -C, -R, -C R, -1 and 0 makes up every entry), so no sum can wrap.  An
    inverse that leaves the range below the top level raises; at the top
    level the same min/max gives `height1`.

    The recursion is validated along the way: the extracted first column and
    last row must equal [0; 1; C] and [R, 1, 0], and for dimensions up to
    _VALIDATE_PRODUCT_UP_TO the product M_n @ inverse is checked to be the
    identity (exact int64 arithmetic).  A failed check raises
    VerificationError.
    """
    if n < 2:
        raise ContractError("the family starts at level 2")
    if n > MAX_LEVEL:
        raise ResourceLimitError(f"level {n} exceeds the cap {MAX_LEVEL}")
    inv = np.array([[-1]], dtype=_INT)
    col = np.array([[-1]], dtype=_INT)
    row = np.array([[-1]], dtype=_INT)
    height1 = True  # every entry of inv lies in [-1, 1]
    for level in range(2, n):
        if not (height1 and _in_unit_range(col) and _in_unit_range(row)):
            raise VerificationError(f"the inverse of M_{level} has an entry outside [-1, 1]")
        d = inv.shape[0]
        big = np.zeros((2 * d + 1, 2 * d + 1), dtype=_INT)
        block, cr = big[:d, :d], big[d + 1:, :d]
        np.multiply(col, row, out=cr)
        np.add(inv, cr, out=block)
        big[d + 1:, d + 1:] = block
        np.negative(cr, out=cr)
        big[:d, d:d + 1] = col
        np.negative(row, out=big[d:d + 1, :d])
        big[d, d] = -1
        big[d, d + 1:] = row
        np.negative(col, out=big[d + 1:, d:d + 1])
        height1 = _in_unit_range(block)
        inv = big
        new_col = inv[:, :1]
        new_row = inv[-1:, :]
        expect_col = np.vstack([np.zeros((d, 1), dtype=_INT), [[1]], col])
        expect_row = np.hstack([row, [[1]], np.zeros((1, d), dtype=_INT)])
        if not (np.array_equal(new_col, expect_col) and np.array_equal(new_row, expect_row)):
            raise VerificationError(f"inverse recursion broke at level {level + 1}")
        col, row = new_col, new_row

    d = inv.shape[0]
    if d <= _VALIDATE_PRODUCT_UP_TO and not _is_inverse(mandelbrot_matrix(n).entries, inv):
        raise VerificationError(f"M_{n} times its computed inverse is not the identity")
    corner = int(inv[d - 1, 0])
    # zero block: the lower-left (1 + d_{n-1}) square of inv + C R vanishes,
    # i.e. there inv equals -C R (compared without forming the sum)
    blk = 1 + mandelbrot_dim(n - 1)
    minus_cr = np.multiply(col[d - blk:], row[:, :blk])
    np.negative(minus_cr, out=minus_cr)
    zero_ok = np.array_equal(inv[d - blk:, :blk], minus_cr)
    return InverseStructureReport(n, inv, corner, col.copy(), row.copy(), zero_ok, height1)


def _in_unit_range(a: np.ndarray) -> bool:
    return bool(a.min() >= -1 and a.max() <= 1)


def _is_inverse(m: np.ndarray, inv: np.ndarray) -> bool:
    """M @ inv == I, exactly in int64: one row operation per nonzero of M."""
    inv64 = inv.astype(np.int64)
    prod = np.zeros(inv64.shape, dtype=np.int64)
    rows, cols = np.nonzero(m)
    for i, j, v in zip(rows.tolist(), cols.tolist(), m[rows, cols].tolist()):
        prod[i] += v * inv64[j]
    return np.array_equal(prod, np.eye(len(prod), dtype=np.int64))
