"""Exact-integer Mandelbrot matrix family and its inverse-structure checks.

M_2 = [-1]; each level glues two copies of the previous one with three -1
entries, so that det(zI - M_n) is the recurrence polynomial p_n defined by
p_0 = 0, p_{n+1} = z p_n^2 + 1.  Everything in this module is integer-exact;
no floating point is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._exact import exact_point, hessenberg_det, unit_hessenberg
from .errors import ContractError, ResourceLimitError, VerificationError
from .matpoly import NonzeroMatrix, _is_identity

#: highest level built (dim 8191).  The outputs are held as their nonzeros at
#: any level, but `toarray()` and `matpencil mandelbrot --out` at level 15
#: would each fill a 256 MiB dense array.
MAX_LEVEL = 14

#: Each level of M_n and its inverse is held as its nonzeros (M_14 has 16,381
#: of 67 M entries, its inverse 16,525), and so are the returned M_n and
#: inverse (`NonzeroMatrix`); only the first column C and last row R are
#: returned dense.  All are int8: their entries are -1/0/1, checked before
#: every level's arithmetic, so each product C R is in [-1, 1] and each sum
#: inv + C R in [-2, 2]: nothing wraps.  Callers cast before taking integer
#: products of their own (a row of M_n @ inverse sums up to dim terms).
_INT = np.int8


def mandelbrot_dim(n: int) -> int:
    return 2 ** (n - 1) - 1


@dataclass(eq=False)
class MandelbrotMatrix:
    n: int
    dim: int
    entries: NonzeroMatrix
    triple_X: np.ndarray  # last unit row vector
    triple_Y: np.ndarray  # first unit column vector


def _check_level(n: int) -> None:
    if n < 2:
        raise ContractError("the family starts at level 2")
    if n > MAX_LEVEL:
        raise ResourceLimitError(f"level {n} exceeds the cap {MAX_LEVEL} (dim {mandelbrot_dim(n)})")


def _matrix_nonzeros(n: int):
    """Rows, columns and values of the nonzeros of M_n in row-major order, by
    the doubling rule.

    M_{k+1} holds two copies of M_k, the second shifted down and right by
    h + 1 (h = dim M_k), and three glue entries: (0, 2h) from -Y c0 X, (h, h - 1)
    from -X and (h + 1, h) from -Y.  Every value is -1; there are 2 dim - 1.
    In row-major order the glue (0, 2h) follows the k - 1 entries of row 0 of
    M_k, (0, 0) and the earlier glue, and the other two glue entries lie
    between the copies.
    """
    rows, cols = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    for k, h in enumerate(map(mandelbrot_dim, range(2, n)), start=2):
        rows = np.concatenate([rows[:k - 1], [0], rows[k - 1:], [h, h + 1], rows + h + 1])
        cols = np.concatenate([cols[:k - 1], [2 * h], cols[k - 1:], [h - 1, h], cols + h + 1])
    return rows, cols, np.full(len(rows), -1, dtype=_INT)


def mandelbrot_matrix(n: int) -> MandelbrotMatrix:
    """Build M_n exactly (entries 0 or -1, upper Hessenberg)."""
    _check_level(n)
    d = mandelbrot_dim(n)
    rows, cols, vals = _matrix_nonzeros(n)
    x, y = np.zeros((1, d), dtype=_INT), np.zeros((d, 1), dtype=_INT)
    x[0, d - 1] = y[0, 0] = 1
    return MandelbrotMatrix(n, d, NonzeroMatrix((d, d), rows * d + cols, vals), x, y)


def mandelbrot_poly_at(n: int, z):
    """p_n(z) by the recurrence p_0 = 0, p_{k+1} = z p_k^2 + 1, exact at every
    point `exact_point` makes exact (a float neither rounds nor overflows);
    a complex, NaN or infinite z is evaluated in floating point, and any
    other z, such as an indeterminate, in its own arithmetic."""
    if n < 0:
        raise ContractError("level must be non-negative")
    x = exact_point(z)
    z = z if x is None else x
    p = 0
    for _ in range(n):
        p = z * p * p + 1
    return p


def mandelbrot_poly_coeffs(n: int) -> list:
    """Exact integer coefficients of p_n, low-to-high: `mandelbrot_poly_at`'s
    recurrence run on the indeterminate z, a numpy Polynomial with Python-int
    coefficients (numpy's arithmetic trims their zero leading terms)."""
    from numpy.polynomial import Polynomial
    p = mandelbrot_poly_at(n, Polynomial(np.array([0, 1], dtype=object)))
    return p.coef.tolist() if n else [p]  # p_0 is the int 0 the recurrence starts from


def charpoly_identity(n: int, points) -> bool:
    """True iff det(zI - M_n) = p_n(z) exactly at every given point.

    M_n is read as its nonzeros, with no dense matrix; zI - M_n must be upper
    Hessenberg with a +-1 subdiagonal, or VerificationError is raised.  Only
    its diagonal z - m_ii changes from point to point: -M_n is laid out once
    (`unit_hessenberg`), and each determinant is taken by Hyman's method
    (`hessenberg_det`): additions and products of one big integer with one
    entry, no division.  Every point is taken exactly (`exact_point`), and a
    complex, NaN or infinite one raises ContractError.
    """
    _check_level(n)
    exact = [exact_point(z) for z in points]
    if None in exact:
        raise ContractError("the points must be real and finite; one is complex, NaN or infinite")
    r, c, v = _matrix_nonzeros(n)
    layout = unit_hessenberg(mandelbrot_dim(n), r, c, -v.astype(np.int64))
    if layout is None:
        raise VerificationError(f"M_{n} is not upper Hessenberg with a -1/+1 subdiagonal")
    diag, sub, above = layout
    for z in exact:
        if hessenberg_det([z + a for a in diag], sub, above) != mandelbrot_poly_at(n, z):
            return False
    return True


@dataclass(eq=False)
class InverseStructureReport:
    """Exact inverse of M_n with the block facts that make the family special."""

    n: int
    inverse: NonzeroMatrix
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

    Every level is held and checked as its nonzeros (`_inverse_nonzeros`).
    M_n @ inverse == I is then checked exactly from the nonzeros of both, and
    a failed check raises VerificationError.  The inverse is returned as its
    nonzeros too; only the first column and last row are dense.
    """
    _check_level(n)
    dim = mandelbrot_dim(n)
    keys, vals, (c_rows, c_vals), (r_cols, r_vals) = _inverse_nonzeros(n)
    if not _times_is_identity(*_matrix_nonzeros(n), keys, vals, dim):
        raise VerificationError(f"M_{n} times its computed inverse is not the identity")
    # zero block: the lower-left (1 + d_{n-1}) square of inv + C R vanishes,
    # i.e. there inv equals -C R
    blk = 1 + mandelbrot_dim(n - 1)
    in_block = (keys >= (dim - blk) * dim) & (keys % dim < blk)
    c_in, r_in = c_rows >= dim - blk, r_cols < blk
    minus_cr = _outer(c_rows[c_in], -c_vals[c_in], r_cols[r_in], r_vals[r_in], dim)
    zero_ok = all(map(np.array_equal, (keys[in_block], vals[in_block]), minus_cr))
    inv = NonzeroMatrix((dim, dim), keys, vals)
    col, row = np.zeros((dim, 1), dtype=_INT), np.zeros((1, dim), dtype=_INT)
    col[c_rows, 0], row[0, r_cols] = c_vals, r_vals
    return InverseStructureReport(n, inv, int(inv[dim - 1, 0]), col, row, zero_ok,
                                  _height1(vals))


def _inverse_nonzeros(n: int):
    """M_n^-1 as its nonzeros: sorted keys row * dim + column (dim of M_n) and
    values, and its first column C as (rows, values) and last row R as
    (columns, values).  C and R have level - 1 nonzeros each, so C R has at
    most (n - 2)^2, which `_next_level` adds to inv.

    Each level is checked on the way: the stored values of inv (C and R among
    them) must lie in [-1, 1] before its int8 arithmetic, and the next level's
    first column and last row must be [0; 1; C] and [R, 1, 0].
    """
    dim = mandelbrot_dim(n)
    keys, vals = np.zeros(1, dtype=np.int64), np.full(1, -1, dtype=_INT)
    c_rows, c_vals, r_cols, r_vals = keys, vals, keys, vals
    for level in range(2, n):
        if not _height1(vals):
            raise VerificationError(f"the inverse of M_{level} has an entry outside [-1, 1]")
        d = mandelbrot_dim(level)
        keys, vals = _next_level(keys, vals, c_rows, c_vals, r_cols, r_vals, d, dim)
        on_col, on_row = keys % dim == 0, keys >= 2 * d * dim
        new = keys[on_col] // dim, vals[on_col], keys[on_row] % dim, vals[on_row]
        expect = (np.concatenate([[d], d + 1 + c_rows]), np.concatenate([[1], c_vals]),
                  np.concatenate([r_cols, [d]]), np.concatenate([r_vals, [1]]))
        if not all(map(np.array_equal, new, expect)):
            raise VerificationError(f"inverse recursion broke at level {level + 1}")
        c_rows, c_vals, r_cols, r_vals = new
    return keys, vals, (c_rows, c_vals), (r_cols, r_vals)


def _next_level(keys, vals, c_rows, c_vals, r_cols, r_vals, d: int, dim: int):
    """The nonzeros of the next level's inverse (dim 2 d + 1), from those of
    inv (dim d) and of its first column C and last row R, all keyed with the
    stride dim, by the block formula of `inverse_structure`.

    The pieces of the formula, in block-row order, are summed by key in one
    dim x dim `NonzeroMatrix.summed` call: inv and C R, C on column d, the
    middle row [-R, -1, R], -C [R, 1] at the lower left, and the offset
    copies of inv and C R.  Only inv and C R share keys; each is a sorted run.
    """
    cr_keys, cr_vals = _outer(c_rows, c_vals, r_cols, r_vals, dim)  # C R
    lo = (d + 1) * dim  # offset of the lower block row
    left_keys, left_vals = _outer(c_rows, -c_vals, np.append(r_cols, d),
                                  np.append(r_vals, _INT(1)), dim)  # -C [R, 1]
    inv = NonzeroMatrix.summed(
        (dim, dim),
        np.concatenate([keys, cr_keys, c_rows * dim + d, d * dim + r_cols, [d * dim + d],
                        d * dim + d + 1 + r_cols, lo + left_keys, lo + d + 1 + keys,
                        lo + d + 1 + cr_keys]),
        np.concatenate([vals, cr_vals, c_vals, -r_vals, [_INT(-1)], r_vals, left_vals, vals,
                        cr_vals]))
    return inv.keys, inv.values


def _height1(vals: np.ndarray) -> bool:
    """Every stored value lies in [-1, 1] (the missing entries are zeros)."""
    return bool(vals.min(initial=0) >= -1 and vals.max(initial=0) <= 1)


def _outer(rows, row_vals, cols, col_vals, stride: int):
    """Keys and values of the outer product of two sparse vectors."""
    return (rows[:, None] * stride + cols).ravel(), (row_vals[:, None] * col_vals).ravel()


def _times_is_identity(m_rows, m_cols, m_vals, keys, vals, dim: int) -> bool:
    """M @ inv == I exactly, from M's nonzeros and inv's sorted keys and values:
    each M[r, c] meets the nonzeros of row c of inv, and the products are
    summed per key in int64, where a sum of dim terms cannot wrap.  Taken in
    M's row-major order, the products come grouped by row, each group a few
    sorted runs, which `NonzeroMatrix.summed` merges; any order gives the same."""
    inv_rows, inv_cols = np.divmod(keys, dim)
    start = np.searchsorted(inv_rows, np.arange(dim + 1))
    count = start[m_cols + 1] - start[m_cols]
    m_at = np.repeat(np.arange(len(m_cols)), count)
    at = np.arange(count.sum()) + np.repeat(start[m_cols] - (np.cumsum(count) - count), count)
    return _is_identity(NonzeroMatrix.summed((dim, dim), m_rows[m_at] * dim + inv_cols[at],
                                             m_vals[m_at].astype(np.int64) * vals[at]))
