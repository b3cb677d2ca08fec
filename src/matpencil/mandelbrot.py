"""Exact-integer Mandelbrot matrix family and its inverse-structure checks.

M_2 = [-1]; each level glues two copies of the previous one with three -1
entries, so that det(zI - M_n) is the recurrence polynomial p_n defined by
p_0 = 0, p_{n+1} = z p_n^2 + 1.  Everything in this module is integer-exact;
no floating point is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._exact import fraction_inverse, hessenberg_det
from .errors import ContractError, ResourceLimitError

#: highest level built (dim 8191); the int64 inverse at level 15 would take 2 GiB
MAX_LEVEL = 14
_VALIDATE_PRODUCT_UP_TO = 1024

#: matrices and inverses are stored as int64; their entries are -1/0/1 and all
#: integer products taken here are bounded by the dimension, far below 2^63.
_INT = np.int64


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
    m = np.array([[-1]], dtype=_INT)
    for level in range(2, n):
        d = m.shape[0]
        big = np.zeros((2 * d + 1, 2 * d + 1), dtype=_INT)
        big[:d, :d] = m
        big[d + 1:, d + 1:] = m
        big[0, 2 * d] = -1        # -Y c0 X glue: top right corner
        big[d, d - 1] = -1        # -X glue row
        big[d + 1, d] = -1        # -Y glue column
        m = big
    d = m.shape[0]
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
    m = mandelbrot_matrix(n).entries.tolist()
    d = len(m)
    for z in points:
        rows = [[(z if i == j else 0) - m[i][j] for j in range(d)] for i in range(d)]
        if hessenberg_det(rows) != mandelbrot_poly_at(n, z):
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

    The recursion is validated along the way: the extracted first column and
    last row must equal [0; 1; C] and [R, 1, 0], and for dimensions up to
    _VALIDATE_PRODUCT_UP_TO the full product M_n @ inverse is checked to be
    the identity (exact int64 arithmetic).
    """
    if n < 2:
        raise ContractError("the family starts at level 2")
    if n > MAX_LEVEL:
        raise ResourceLimitError(f"level {n} exceeds the cap {MAX_LEVEL}")
    inv = np.array([[-1]], dtype=_INT)
    col = np.array([[-1]], dtype=_INT)
    row = np.array([[-1]], dtype=_INT)
    for level in range(2, n):
        d = inv.shape[0]
        cr = col @ row
        block = inv + cr
        big = np.zeros((2 * d + 1, 2 * d + 1), dtype=_INT)
        big[:d, :d] = block
        big[:d, d:d + 1] = col
        big[d, :d] = -row
        big[d, d] = -1
        big[d, d + 1:] = row
        big[d + 1:, :d] = -cr
        big[d + 1:, d:d + 1] = -col
        big[d + 1:, d + 1:] = block
        inv = big
        new_col = inv[:, :1]
        new_row = inv[-1:, :]
        expect_col = np.vstack([np.zeros((d, 1), dtype=_INT), [[1]], col])
        expect_row = np.hstack([row, [[1]], np.zeros((1, d), dtype=_INT)])
        if not (np.array_equal(new_col, expect_col) and np.array_equal(new_row, expect_row)):
            raise AssertionError(f"inverse recursion broke at level {level + 1}")
        col, row = new_col, new_row

    d = inv.shape[0]
    if d <= _VALIDATE_PRODUCT_UP_TO:
        m = mandelbrot_matrix(n).entries
        if not np.array_equal(m @ inv, np.eye(d, dtype=_INT)):
            raise AssertionError(f"M_{n} times its computed inverse is not the identity")
    corner = int(inv[d - 1, 0])
    # zero block: lower-left (1 + d_{n-1}) square of inv + C R
    blk = 1 + mandelbrot_dim(n - 1)
    combined = inv + col @ row
    zero_ok = bool(np.all(combined[d - blk:, :blk] == 0))
    height1 = bool(np.all(np.abs(inv) <= 1))
    return InverseStructureReport(n, inv, corner, inv[:, :1].copy(), inv[-1:, :].copy(),
                                  zero_ok, height1)


def inverse_fraction_fallback(n: int) -> np.ndarray:
    """Independent exact inverse via Gauss-Jordan over Fractions (small levels)."""
    m = mandelbrot_matrix(n).entries.tolist()
    inv = fraction_inverse(m)
    out = np.zeros((len(inv), len(inv)), dtype=_INT)
    for i, r in enumerate(inv):
        for j, x in enumerate(r):
            if x.denominator != 1:
                raise AssertionError("inverse has a non-integer entry")
            out[i, j] = int(x)
    return out
