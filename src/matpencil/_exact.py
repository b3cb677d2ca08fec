"""Exact integer and rational linear algebra used by the big-integer code paths.

Everything here works on plain Python ints / Fractions (arbitrary precision);
no floating point enters these routines.  `hessenberg_det` also takes a numpy
array, and `unit_hessenberg_det` numpy integer entries; both turn them into
Python ints before any arithmetic.
"""

from fractions import Fraction

import numpy as np

from .errors import ContractError


def is_upper_hessenberg(rows):
    n = len(rows)
    return all(rows[i][j] == 0 for i in range(n) for j in range(n) if i > j + 1)


def hessenberg_det(rows):
    """Determinant of an upper Hessenberg matrix via the leading-minor recurrence.

    Takes a list of lists or a 2-D numpy integer or object array; entries
    below the subdiagonal are ignored.  Expanding the (k+1)-th leading minor
    along its last column k, the cofactor of a nonzero entry (r, k) is the
    r-th minor times the product of the subdiagonal entries s_{r+1} .. s_k.
    Those products are quotients of prefix products that restart at every
    zero subdiagonal entry (a zero s_j cancels every term with r < j), so
    only the nonzero entries are visited: O(n + nnz) exact multiplications
    on Python ints or Fractions.
    """
    a = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    n = len(a)
    if n == 0:
        return 1
    # nonzeros in column-major order: C order sorted stably by column keeps
    # rows ascending (a flat scan of a boolean mask is numpy's fastest way to find them)
    r_idx, c_idx = np.divmod(np.flatnonzero(a.astype(bool)), n)
    order = np.argsort(c_idx, kind="stable")
    r_idx, c_idx = r_idx[order], c_idx[order]
    vals = [_as_exact(v) for v in a[r_idx, c_idx].tolist()]
    bounds = np.searchsorted(c_idx, np.arange(n + 1)).tolist()  # column k: bounds[k]:bounds[k+1]
    r_idx = r_idx.tolist()
    minors = [1]   # minors[k]: determinant of the leading k x k block
    prefix = [1]   # prefix[j]: s_{start+1} * ... * s_j
    start = 0      # last j <= k with s_j == 0, or 0
    sub = 0        # s_k = entry (k, k-1), read from column k-1
    for k in range(n):
        if k:
            if sub:
                prefix.append(prefix[k - 1] * sub)
            else:
                prefix.append(1)
                start = k
        total, sub = 0, 0
        for pos in range(bounds[k], bounds[k + 1]):
            r, v = r_idx[pos], vals[pos]
            if r == k + 1:
                sub = v
            elif start <= r <= k:
                term = v * minors[r]
                if r < k:
                    term = term * _exact_quotient(prefix[k], prefix[r])
                total = total - term if (k - r) & 1 else total + term
        minors.append(total)
    return minors[n]


def unit_hessenberg_det(diag, sub, upper):
    """Determinant of an upper Hessenberg matrix H whose subdiagonal is all ±1,
    by Hyman's method.

    diag holds the n diagonal entries H_ii, sub the n - 1 subdiagonal entries
    s_i = H_{i,i-1} (each 1 or -1), and upper the strictly upper nonzeros as
    (i, j, H_ij) triples with i < j, in any order.  A subdiagonal entry other
    than ±1, or an "upper" entry on or below the diagonal, raises
    ContractError.  The work is split in two: `hyman_rows` checks and buckets
    the off-diagonal part, `hyman_det` runs the recurrence; a caller that
    takes the determinant at many diagonals calls the first once.
    """
    return hyman_det([_as_exact(v) for v in diag], *hyman_rows(len(diag), sub, upper))


def hyman_rows(n: int, sub, upper):
    """The off-diagonal part of an n x n Hessenberg matrix with a ±1
    subdiagonal, checked and laid out for `hyman_det`: sub as a list of ±1,
    and the strictly upper (i, j, H_ij) triples as one list per row i of
    (j, H_ij) pairs, each entry an exact Python number.  Raises ContractError
    as `unit_hessenberg_det` does."""
    sub = list(sub)
    if len(sub) != max(n - 1, 0) or not set(sub) <= {1, -1}:
        raise ContractError("the subdiagonal must hold n - 1 entries, each 1 or -1")
    above = [[] for _ in range(n)]
    for i, j, v in upper:
        if not 0 <= i < j < n:
            raise ContractError(f"entry ({i}, {j}) is not strictly upper in a {n} x {n} matrix")
        above[i].append((j, _as_exact(v)))
    return sub, above


def hyman_det(diag, sub, above):
    """det H by Hyman's recurrence, from H's diagonal (exact Python numbers)
    and its off-diagonal part as laid out by `hyman_rows`.

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


def _as_exact(v):
    """A numpy integer as a Python int (which cannot overflow); anything else as is."""
    return int(v) if isinstance(v, np.integer) else v


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


def exact_det(rows):
    """Exact determinant; picks the Hessenberg recurrence when it applies."""
    if is_upper_hessenberg(rows):
        return hessenberg_det(rows)
    return bareiss_det(rows)


def newton_interp(xs, ys):
    """Interpolating polynomial through (xs[i], ys[i]), exact rational arithmetic.

    Returns coefficients low-to-high as Fractions.  O(n^2).
    """
    n = len(xs)
    dd = [Fraction(y) for y in ys]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    # Horner assembly of the Newton form
    coeffs = [Fraction(0)] * n
    coeffs[0] = dd[n - 1]
    deg = 0
    for k in range(n - 2, -1, -1):
        # multiply by (x - xs[k]), then add dd[k]
        for i in range(deg, -1, -1):
            coeffs[i + 1] += coeffs[i]
            coeffs[i] = -coeffs[i] * xs[k]
        deg += 1
        coeffs[0] += dd[k]
    return coeffs


def interp_int(xs, ys):
    """Like newton_interp but asserts the result is an integer polynomial."""
    coeffs = newton_interp(xs, ys)
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise ArithmeticError("interpolation of integer data produced a non-integer")
        out.append(int(c))
    return out
