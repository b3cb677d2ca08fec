"""Independent brute-force verifiers.

These work only from Pencil and MatPoly values (never through the
construction code they are used to check): interpolated characteristic
polynomials, pointwise determinant equality, and scalar root extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._exact import interp_int
from .errors import ContractError
from .matpoly import _interp_roots_of_unity, eval_at
from .pencil import (Pencil, pencil_det_at, _check_numeric, _check_sampling, _is_exact,
                     _rel_det_dev)


def interp_charpoly(p: Pencil):
    """Coefficients (low-to-high) of det(zD - A), degree <= N.

    Float path: N+1 roots of unity and an inverse DFT.  Integer pencils take
    the exact path: integer points 0..N, exact determinants, exact
    interpolation, with integer coefficients guaranteed.
    """
    n = p.N
    if _is_exact(p.D) and _is_exact(p.A):
        xs = list(range(n + 1))
        ys = [pencil_det_at(p, x) for x in xs]
        return interp_int(xs, ys)
    return _interp_roots_of_unity(lambda pts: np.linalg.det(p.at(pts)), n)


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
    degree <= max(N, r*grade) agreeing there agree everywhere).  Deviations are
    normalized by max(1, |det q|).  ContractError for n_points < 1 or a tol
    that is not finite and positive, StructuralError for an object pencil.
    """
    _check_numeric(p.D, p.A)
    if n_points is None:
        n_points = max(p.N, q.dim * q.grade) + 1
    _check_sampling(n_points, tol)
    pts = 2.0 * np.exp(2j * np.pi * (np.arange(n_points) + 0.28571) / n_points)
    dev = _rel_det_dev(np.linalg.slogdet(p.at(pts)), np.linalg.slogdet(eval_at(q, pts)))
    worst = float(np.max(dev, initial=0.0))
    return DetEquality(worst <= tol, worst, n_points)


def scalar_roots(coeffs, trim_tol: float = 1e-10):
    """Roots of a scalar polynomial, companion-matrix eigenvalues of the monic form.

    Leading coefficients below trim_tol * max|coeff| are dropped first, which
    is how spurious (infinite) degrees of interpolated characteristic
    polynomials get discarded.
    """
    arr = np.asarray(coeffs, dtype=complex)
    if arr.size == 0 or not np.any(arr != 0):
        raise ContractError("polynomial is identically zero")
    cutoff = trim_tol * float(np.abs(arr).max())
    deg = arr.size - 1
    while deg > 0 and abs(arr[deg]) <= cutoff:
        deg -= 1
    if deg == 0:
        raise ContractError("polynomial is constant after trimming")
    return np.roots(arr[: deg + 1][::-1])
