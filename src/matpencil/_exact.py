"""Exact integer and rational linear algebra used by the big-integer code paths.

Everything here works on plain Python ints / Fractions (arbitrary precision);
no floating point enters these routines.  `hessenberg_det` also takes a numpy
array, whose entries it turns into Python ints before any arithmetic.
"""

from fractions import Fraction

import numpy as np


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
    vals = [int(v) if isinstance(v, np.integer) else v for v in a[r_idx, c_idx].tolist()]
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


def _exact_quotient(num, den):
    """num / den for a den that divides num; stays an int for ints."""
    return num // den if isinstance(num, int) and isinstance(den, int) else num / den


def bareiss_det(rows):
    """Fraction-free determinant (Bareiss elimination) of an integer matrix."""
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
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
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
