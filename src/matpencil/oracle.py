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
from .matpoly import _interp_roots_of_unity, eval_at
from .pencil import (Pencil, _check_numeric, _check_sampling, _is_exact, _rel_det_dev,
                     _slice_len)


def interp_charpoly(p: Pencil):
    """Coefficients (low-to-high) of det(zD - A), degree <= N.

    Float path: N+1 roots of unity, whose determinants are taken in slices
    of `pencil._slice_len` points, and an inverse DFT.  Integer and object
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
    step = _slice_len(n)
    return _interp_roots_of_unity(lambda pts: np.concatenate(
        [np.linalg.det(p.at(pts[lo:lo + step])) for lo in range(0, n + 1, step)]), n)


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
    step, devs = _slice_len(max(p.N, q.dim)), []
    for lo in range(0, n_points, step):
        k = np.arange(lo, min(lo + step, n_points))
        pts = 2.0 * np.exp(2j * np.pi * (k + 0.28571) / n_points)
        dev = _rel_det_dev(np.linalg.slogdet(p.at(pts)), np.linalg.slogdet(eval_at(q, pts)))
        devs.append(np.max(dev))
    worst = float(np.max(devs))
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
