"""Exact integer and rational linear algebra used by the big-integer code paths.

Everything here works on plain Python ints / Fractions (arbitrary precision);
no floating point enters these routines.  `exact_point` is the one rule for
what a point means on exact data.  `pencil_dets` is the one exact pencil
determinant: Hyman's method (`hessenberg_det`, from the `unit_hessenberg`
layout) when zD - A is upper Hessenberg with a ±1 subdiagonal and D is
diagonal, Bareiss elimination (`bareiss_det`) otherwise.  `forward_interp`
is the one exact interpolation, at the points 0..N, in ints for int values.
"""

from fractions import Fraction

import numpy as np

from .matpoly import _entries


def exact_point(z):
    """z as an exact number: an int or Fraction as is, a numpy integer as a
    Python int (no wrap-around), a finite real float as the Fraction it
    equals; None for a complex, NaN or infinite point."""
    if isinstance(z, (float, np.floating)):
        return Fraction(*z.as_integer_ratio()) if np.isfinite(z) else None
    if isinstance(z, np.integer):
        return int(z)
    return z if isinstance(z, (int, Fraction)) else None


def unit_hessenberg(n: int, rows, cols, vals):
    """Hyman's layout (diag, sub, above) of the n x n matrix H whose nonzeros
    are H[rows[k], cols[k]] = vals[k], or None unless H is upper Hessenberg
    with a ±1 subdiagonal.

    rows, cols and vals are numpy arrays, one entry per position; vals has a
    numpy integer dtype or holds Python ints and Fractions (dtype object).
    diag lists the n entries H_ii, sub the n - 1 entries H_{i,i-1} as 1 or -1,
    and above[i] the pairs (j, H_ij) of row i's nonzeros right of the diagonal.
    """
    on_sub = rows == cols + 1
    s = vals[on_sub]
    if (rows > cols + 1).any() or len(s) != max(n - 1, 0) or (np.abs(s) != 1).any():
        return None
    sub = np.empty(len(s), dtype=np.int64)
    sub[cols[on_sub]] = np.where(s == 1, 1, -1)
    on_diag, up = rows == cols, rows < cols
    diag = np.zeros(n, dtype=vals.dtype)
    diag[rows[on_diag]] = vals[on_diag]
    above = [[] for _ in range(n)]
    for i, j, v in zip(rows[up].tolist(), cols[up].tolist(), vals[up].tolist()):
        above[i].append((j, v))
    return diag.tolist(), sub.tolist(), above


def hessenberg_det(diag, sub, above):
    """det H of an upper Hessenberg matrix H with a ±1 subdiagonal, by
    Hyman's method, from its layout by `unit_hessenberg` (the diagonal may be
    replaced by any list of n exact Python numbers).

    With x_{n-1} = 1 and

        x_{i-1} = -s_i (H_ii x_i + sum_{j>i} H_ij x_j),   i = n-1 .. 1,

    (1/s_i = s_i), every row of H x but the first vanishes, so Cramer's rule
    gives det H = (-1)^(n-1) prod(s) sum_j H_0j x_j.  Each x_j is one entry
    times another x, summed: no division, O(n + nnz) exact products on
    Python ints or Fractions.
    """
    n = len(diag)
    if n == 0:
        return 1
    x = [0] * n
    x[n - 1] = 1
    for i in range(n - 1, 0, -1):
        acc = diag[i] * x[i]
        for j, v in above[i]:
            acc += x[j] if v == 1 else v * x[j]  # skip the product for unit entries
        x[i - 1] = -acc if sub[i - 1] == 1 else acc
    det = diag[0] * x[0]
    for j, v in above[0]:
        det += v * x[j]
    # (-1)^(n-1) prod(s) = (-1)^(number of +1 entries in sub)
    return -det if sub.count(1) & 1 else det


def _exact_quotient(num, den):
    """num / den for a den that divides num; stays an int for ints."""
    return num // den if isinstance(num, int) and isinstance(den, int) else num / den


def bareiss_det(rows):
    """Determinant by Bareiss elimination of an integer or rational matrix.

    Each step divides exactly by the previous pivot: an int for integer
    entries (fraction-free), a Fraction otherwise.
    """
    m = [list(row) for row in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = _exact_quotient(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _as_python(arr: np.ndarray) -> np.ndarray:
    """An integer or object array as an object array of Python numbers."""
    if arr.dtype != object:
        return arr.astype(object)
    return np.frompyfunc(lambda v: int(v) if isinstance(v, np.integer) else v, 1, 1)(arr)


def pencil_dets(D, A, points) -> list:
    """[det(z*D - A) for z in points], exact for integer or object matrices
    D, A, dense or held, and exact points.  When D is diagonal and -A upper
    Hessenberg with a ±1 subdiagonal, -A is laid out once from its nonzeros
    and each point swaps in the diagonal z d_ii - a_ii for Hyman's method (a
    dense D's d_ii as stored); any other pencil is made dense for Bareiss."""
    n = D.shape[0]
    (d_rows, d_cols, d_vals), (rows, cols, vals) = _entries(D), _entries(A)
    layout = (d_rows == d_cols).all() and unit_hessenberg(n, rows, cols, -_as_python(vals))
    if layout:
        diag, sub, above = layout
        d_diag = _as_python(np.diagonal(D) if isinstance(D, np.ndarray) else np.zeros(n, D.dtype))
        d_diag[d_rows] = _as_python(d_vals)
        pairs = list(zip(d_diag.tolist(), diag))
        return [hessenberg_det([z * e + f for e, f in pairs], sub, above) for z in points]
    d, a = (_as_python(np.asarray(m)) for m in (D, A))
    return [bareiss_det((z * d - a).tolist()) for z in points]


def forward_interp(ys) -> list:
    """Coefficients, low-to-high, of the polynomial of degree < len(ys) that
    takes the value ys[k] at z = k (ys non-empty), exact: Newton's forward
    differences Delta^k y_0 in the values' own arithmetic (an int stays an int,
    any other value becomes the Fraction it equals), each divided once by k!
    (an int where k! divides it, a Fraction otherwise), then Horner's rule in
    the falling factorials z (z - 1) ... (z - k + 1)."""
    d = [y if isinstance(y, int) else Fraction(y) for y in ys]
    n = len(d)
    for level in range(1, n):  # d[i] becomes Delta^level y_{i - level}
        d[level:] = [b - a for a, b in zip(d[level - 1:], d[level:])]
    fact = 1
    for k in range(2, n):
        fact *= k
        q, r = divmod(d[k], fact)
        d[k] = q if r == 0 else Fraction(d[k], fact)
    coeffs = [d[n - 1]]
    for k in range(n - 2, -1, -1):  # coeffs * (z - k) + d[k]
        coeffs = [d[k] - k * coeffs[0]] + [a - k * b for a, b in zip(coeffs, coeffs[1:] + [0])]
    return coeffs
