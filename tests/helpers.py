"""Shared random-instance generators and independent oracles for the test suite."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import matpencil as mp
from matpencil._compose import (composite_coeffs, mono_add, mono_mul,
                                shift_left_coeffs, shift_right_coeffs)
from matpencil.errors import VerificationError
from matpencil.matpoly import _interp_roots_of_unity

__all__ = ["rand_mat", "rand_mono", "rand_lagrange", "rand_chebyshev",
           "composite_coeffs", "mono_add", "mono_mul", "shift_left_coeffs",
           "shift_right_coeffs", "chebyshev_to_monomial", "det_poly", "ControllabilityReport",
           "controllability_matrix", "fraction_inverse", "inverse_fraction_fallback",
           "rational_pencil"]


def rand_mat(rng, r):
    return rng.uniform(-1, 1, (r, r)) + 1j * rng.uniform(-1, 1, (r, r))


def rand_mono(rng, r, s, monic=False):
    data = np.stack([rand_mat(rng, r) for _ in range(s + 1)])
    if monic:
        data[-1] = np.eye(r)
    return mp.MatPoly.monomial_poly(data)


def rand_chebyshev(rng, r, s):
    return mp.MatPoly.chebyshev_poly(np.stack([rand_mat(rng, r) for _ in range(s + 1)]))


def rand_lagrange(rng, r, s, min_sep=0.3):
    while True:
        nodes = rng.uniform(-1, 1, s + 1) + 1j * rng.uniform(-1, 1, s + 1)
        sep = min(abs(a - b) for i, a in enumerate(nodes) for b in nodes[i + 1:]) if s else 1.0
        if sep >= min_sep:
            break
    weights = mp.barycentric_weights(nodes)
    samples = np.stack([rand_mat(rng, r) for _ in range(s + 1)])
    return mp.MatPoly.lagrange_poly(nodes, weights, samples)


def rational_pencil():
    """An object (Fraction) pencil with det(zD - A) = (z - 1/2) (z/2 - 2)."""
    half = Fraction(1, 2)
    return mp.Pencil(np.array([[1, 0], [0, half]], dtype=object),
                     np.array([[half, 1], [0, 2]], dtype=object))


def chebyshev_to_monomial(cheb_coeffs):
    """Scalar Chebyshev coefficients -> monomial coefficients (test oracle)."""
    t_prev, t_cur = [1.0], [0.0, 1.0]
    out = [0.0] * len(cheb_coeffs)
    for k, c in enumerate(cheb_coeffs):
        t_k = t_prev if k == 0 else (t_cur if k == 1 else None)
        if t_k is None:
            t_k = [0.0] + [2.0 * v for v in t_cur]
            for i, v in enumerate(t_prev):
                t_k[i] -= v
            t_prev, t_cur = t_cur, t_k
        for i, v in enumerate(t_k):
            out[i] += c * v
    return out


def det_poly(p):
    """Coefficients (low-to-high) of det p(z) from det(eval_at(p, .)) at the
    roots of unity and an inverse DFT (test oracle)."""
    return _interp_roots_of_unity(lambda pts: np.linalg.det(mp.eval_at(p, pts)),
                                  p.dim * p.grade)


@dataclass
class ControllabilityReport:
    V: np.ndarray
    cond_estimate: float
    nonsingular: bool


def controllability_matrix(t):
    """Block Krylov matrix [Y, AY, ..., A^(s-1) Y], s = t.grade, with a
    nonsingularity check."""
    cols = [t.Y]
    for _ in range(t.grade - 1):
        cols.append(t.pencil.A @ cols[-1])
    v = np.hstack(cols)
    if v.shape[0] != v.shape[1]:
        return ControllabilityReport(v, np.inf, False)
    sv = np.linalg.svd(v, compute_uv=False)
    cond = np.inf if sv[-1] == 0 else float(sv[0] / sv[-1])
    return ControllabilityReport(v, cond, cond < 1e12)


def fraction_inverse(rows):
    """Gauss-Jordan inverse over Fractions; raises on singular input."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def inverse_fraction_fallback(n):
    """Independent exact inverse of M_n via Gauss-Jordan over Fractions (small levels)."""
    inv = fraction_inverse(mp.mandelbrot_matrix(n).entries.tolist())
    out = np.zeros((len(inv), len(inv)), dtype=np.int64)  # wide: assumes no bound
    for i, r in enumerate(inv):
        for j, x in enumerate(r):
            if x.denominator != 1:
                raise VerificationError("inverse has a non-integer entry")
            out[i, j] = int(x)
    return out
