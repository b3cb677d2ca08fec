"""Independent brute-force verifiers.

These work only from Pencil and MatPoly values (never through the
construction code they are used to check): interpolated characteristic
polynomials, pointwise determinant equality, and scalar root extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._exact import forward_interp, pencil_dets
from .errors import ContractError, VerificationError
from .matpoly import eval_at
from .pencil import Pencil, _check_numeric, _check_sampling, _det_deviation, _is_exact, _slice_len


def interp_charpoly(p: Pencil):
    """Coefficients (low-to-high) of det(zD - A), degree <= N.

    Float path: the determinants at the N+1 roots of unity, taken in slices
    of `pencil._slice_len` points, and an inverse DFT (the Vandermonde system
    there is unitary up to scaling, so well conditioned).  Integer and object
    (e.g. Fraction) pencils take the exact path: `pencil_dets` at the points
    0..N, then `forward_interp`.  An integer-dtype pencil gets Python int
    coefficients (VerificationError unless integers), an object one Fractions.
    """
    n = p.N
    if _is_exact(p.D) and _is_exact(p.A):
        coeffs = forward_interp(pencil_dets(p.D, p.A, list(range(n + 1))))
        if p.D.dtype == object or p.A.dtype == object:
            return [Fraction(c) for c in coeffs]
        if any(isinstance(c, Fraction) for c in coeffs):
            raise VerificationError("interpolation of integer data produced a non-integer")
        return coeffs
    # negative angles make the values the DFT of the coefficients
    pts, step = np.exp(-2j * np.pi * np.arange(n + 1) / (n + 1)), _slice_len(n)
    return np.fft.ifft(np.concatenate(
        [np.linalg.det(p.at(pts[lo:lo + step])) for lo in range(0, n + 1, step)]))


@dataclass
class DetEquality:
    ok: bool
    max_deviation: float
    points: int

    def __bool__(self):
        return self.ok


def det_equality(p: Pencil, q, n_points: int | None = None, tol: float = 1e-8) -> DetEquality:
    """Compare det(zD - A) against det(q(z)) at enough points to certify identity.

    Defaults to max(N, r*grade) + 1 fixed points on |z| = 2 (two polynomials of
    degree <= max(N, r*grade) agreeing there agree everywhere), generated and
    checked in slices of `pencil._slice_len` points.  Deviations are
    normalized by max(1, |det q|).  ContractError for n_points < 1 or a tol
    that is not finite and positive, StructuralError for an object pencil.
    """
    _check_numeric(p.D, p.A)
    if n_points is None:
        n_points = max(p.N, q.dim * q.grade) + 1
    _check_sampling(n_points, tol)
    step, worst = _slice_len(max(p.N, q.dim)), 0.0
    for lo in range(0, n_points, step):
        k = np.arange(lo, min(lo + step, n_points))
        pts = 2.0 * np.exp(2j * np.pi * (k + 0.28571) / n_points)
        worst = np.maximum(worst, _det_deviation(p.at(pts), eval_at(q, pts)))
    worst = float(worst)
    return DetEquality(worst <= tol, worst, n_points)


_TRIM_TOL = 1e-10


def scalar_roots(coeffs):
    """Roots of a scalar polynomial, companion-matrix eigenvalues of the monic form.

    Leading coefficients below _TRIM_TOL * max|coeff| are dropped first, which
    is how spurious (infinite) degrees of interpolated characteristic
    polynomials get discarded.  ContractError for a NaN or infinite
    coefficient.
    """
    arr = np.asarray(coeffs, dtype=complex)
    if not np.isfinite(arr).all():
        raise ContractError("the polynomial has a non-finite coefficient")
    if arr.size == 0 or not np.any(arr != 0):
        raise ContractError("polynomial is identically zero")
    cutoff = _TRIM_TOL * float(np.abs(arr).max())
    deg = arr.size - 1
    while deg > 0 and abs(arr[deg]) <= cutoff:
        deg -= 1
    if deg == 0:
        raise ContractError("polynomial is constant after trimming")
    return np.roots(arr[: deg + 1][::-1])
