"""Pencils z*D - A and standard triples X (zD - A)^-1 Y.

The determinant primitive and the resolvent primitive here are what every
construction in this package is verified against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._exact import exact_point, pencil_dets
from .errors import ContractError, DegenerateInputError, SpectrumError, StructuralError
from .matpoly import _common, eval_at

#: 1-norm condition number above which zD - A counts as numerically singular
COND_CAP = 1e12

#: bytes one slice of sample points may take; the verifiers take their
#: points in slices that keep each one's arrays below it
STACK_BYTES = 1 << 25


def _slice_len(size: int) -> int:
    """Points per slice: as many as keep within STACK_BYTES a stack of
    size x size complex128 matrices, one temporary of the same size, and 256
    bytes per point for the side arrays (the points, their indices,
    determinants and deviations), and at least one."""
    return max(1, STACK_BYTES // (32 * size * size + 256))


@dataclass(eq=False)
class Pencil:
    """The matrix pencil z*D - A (two equal-size square matrices).

    An object (e.g. Fraction) pencil is accepted by `pencil_det_at` (exact
    wherever `exact_point` is) and `oracle.interp_charpoly` (Fraction
    coefficients) only; `resolvent_eval`, `verify_triple`,
    `oracle.det_equality` and `eigensolve.generalized_eigen` are numeric-only
    and raise StructuralError for one.
    """

    D: np.ndarray
    A: np.ndarray
    block_meta: dict | None = None

    def __post_init__(self):
        self.D = np.asarray(self.D)
        self.A = np.asarray(self.A)
        if self.D.ndim != 2 or self.D.shape[0] != self.D.shape[1]:
            raise StructuralError("D must be square")
        if self.A.shape != self.D.shape:
            raise StructuralError("A and D must have the same square shape")

    @property
    def N(self) -> int:
        return self.D.shape[0]

    def at(self, z) -> np.ndarray:
        """z*D - A; an array of points gives the stack of shape z.shape + (N, N).

        The dtype follows `matpoly._common` over z, D and A: float64 for real
        points on a real pencil, complex128 once any of them is complex."""
        (z,) = _common(z)
        return z[..., None, None] * self.D - self.A


@dataclass(eq=False)
class StandardTriple:
    """(X, zD - A, Y) with X (zD-A)^-1 Y = a^-1(z).

    `grade` records the degree of the polynomial the pencil linearizes, which
    composition rules need for bookkeeping.
    """

    X: np.ndarray
    pencil: Pencil
    Y: np.ndarray
    grade: int | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X)
        self.Y = np.asarray(self.Y)
        n = self.pencil.N
        if self.X.ndim != 2 or self.X.shape[1] != n:
            raise StructuralError(f"X must have {n} columns")
        if self.Y.ndim != 2 or self.Y.shape[0] != n:
            raise StructuralError(f"Y must have {n} rows")
        if self.X.shape[0] != self.Y.shape[1]:
            raise StructuralError("X and Y disagree on the polynomial dimension r")

    @property
    def r(self) -> int:
        return self.X.shape[0]

    @property
    def N(self) -> int:
        return self.pencil.N


def _is_exact(arr: np.ndarray) -> bool:
    return arr.dtype.kind in "iu" or arr.dtype == object


def pencil_det_at(p: Pencil, z: complex):
    """det(z*D - A): exact (`pencil_dets`) for an integer or object pencil at
    a point `exact_point` makes exact, by slogdet otherwise."""
    x = exact_point(z)
    if _is_exact(p.D) and _is_exact(p.A) and x is not None:
        return pencil_dets(p.D, p.A, [x])[0]
    m = p.at(z)
    # a rational (object) pencil at a point that is not exact: no LAPACK dtype
    sign, logdet = np.linalg.slogdet(m.astype(complex) if m.dtype == object else m)
    return sign * np.exp(logdet)


def _check_numeric(*arrays) -> None:
    """StructuralError unless every array has a numeric dtype LAPACK can take."""
    for arr in arrays:
        if arr.dtype.kind not in "biufc":
            raise StructuralError(f"this routine needs numeric data, got dtype {arr.dtype}")


def pivot_condition(mat: np.ndarray):
    """1-norm condition number ||M||_1 ||M^-1||_1 of one matrix (a float) or of
    every matrix in a stack (an array); a singular matrix reads inf."""
    return _cond_and_inverse(np.asarray(mat))[0][()]


def _cond_and_inverse(mats: np.ndarray):
    """`pivot_condition` of a stack of matrices and their inverses, from one
    inversion with the kernel and norms of `np.linalg.cond(mats, 1)`.  When a
    matrix of the stack is singular the inversion raises, and the condition
    numbers come from `np.linalg.cond` with no inverses (None)."""
    if not mats.shape[-1]:
        return np.ones(mats.shape[:-2]), None
    try:
        inv = np.linalg.inv(mats)
    except np.linalg.LinAlgError:
        cond, inv = np.linalg.cond(mats, 1), None
    else:
        with np.errstate(all="ignore"):
            cond = (np.linalg.norm(mats, 1, axis=(-2, -1))
                    * np.linalg.norm(inv, 1, axis=(-2, -1)))
    # NaN for a matrix with NaN entries; inf keeps it above every cap
    return np.where(np.isnan(cond), np.inf, cond), inv


def _resolvent(t: StandardTriple, m: np.ndarray) -> np.ndarray:
    """X m^-1 Y for m = zD - A or a stack of them."""
    return t.X @ np.linalg.solve(m, t.Y)


def resolvent_eval(t: StandardTriple, z) -> np.ndarray:
    """X (zD - A)^-1 Y; an array of points gives a stack."""
    _check_numeric(t.X, t.pencil.D, t.pencil.A, t.Y)
    m = t.pencil.at(z)
    if np.any(pivot_condition(m) > COND_CAP):
        raise SpectrumError(f"z = {z} is too close to the pencil spectrum")
    return _resolvent(t, m)


def _det_deviation(pencil_mats: np.ndarray, poly_mats: np.ndarray):
    """The worst |det P - det Q| / max(1, |det Q|) over two equal stacks of
    matrices, compared from their slogdet (sign, log|det|) pairs so that huge
    determinants do not overflow; NaN when any point's deviation is NaN."""
    sp, lp = np.linalg.slogdet(pencil_mats)
    sq, lq = np.linalg.slogdet(poly_mats)
    both_zero = (sp == 0) & (sq == 0)
    top = np.where(both_zero, 0.0, np.maximum(lp, lq))
    num = np.abs(sp * np.exp(lp - top) - sq * np.exp(lq - top))
    log_scale = top - np.maximum(0.0, lq)
    dev = np.where(log_scale > 700.0, np.inf, num * np.exp(np.minimum(log_scale, 700.0)))
    return np.max(np.where(both_zero, 0.0, dev))


def _check_sampling(n_points: int, tol: float) -> None:
    """ContractError unless there is at least one point and tol is a finite
    positive number."""
    if n_points < 1:
        raise ContractError(f"need at least one sample point, got {n_points}")
    if not 0 < tol < np.inf:  # also false for NaN
        raise ContractError(f"tol must be a finite positive number, got {tol}")


@dataclass
class VerifyReport:
    """Outcome of checking a triple against its polynomial."""

    det_deviation: float
    resolvent_deviation: float | None
    tol: float
    points: list
    passed: bool

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"verify[{status}] det dev {self.det_deviation:.3e}, "
            f"resolvent dev {self.resolvent_deviation if self.resolvent_deviation is None else format(self.resolvent_deviation, '.3e')} "
            f"at tol {self.tol:.1e} over {len(self.points)} points"
        )


def verify_triple(t: StandardTriple, p, n_points: int | None = None,
                  tol: float = 1e-8, rng=None) -> VerifyReport:
    """Check det(zD - A) = det a(z) and resolvent = a^-1(z) at sampled points.

    Points are drawn uniformly on |z| = 2 and rejected while the shifted
    pencil's 1-norm condition number exceeds 1/tol, so the resolvent stays
    computable; DegenerateInputError after 100 * n_points draws.  Draws come
    in chunks no larger than the number of points still missing or than one
    slice (`_slice_len`), so the accepted points and the rng state are those
    of drawing one at a time.  Each chunk's zD - A is formed and conditioned
    once, and its admissible points go with their matrices straight into the
    checks.  Deviations are relative; the determinant one is normalized by
    max(1, |det a|) so huge determinants do not drown the comparison.  The
    resolvent is compared at the points where a(z) is also well-conditioned.
    ContractError for n_points < 1 or a tol that is not finite and positive,
    StructuralError for an object pencil or triple.
    """
    if t.r != p.dim:
        raise StructuralError(f"triple has r = {t.r} but polynomial has dim {p.dim}")
    _check_numeric(t.X, t.pencil.D, t.pencil.A, t.Y)
    if n_points is None:
        n_points = max(t.N, p.dim * p.grade) + 1
    _check_sampling(n_points, tol)
    rng = np.random.default_rng(rng)
    cond_cap = 1.0 / tol
    step = _slice_len(max(t.N, p.dim))
    points, attempts, det_dev, res_dev = [], 0, 0.0, None
    while len(points) < n_points:
        k = min(n_points - len(points), 100 * n_points - attempts, step)
        if k <= 0:
            raise DegenerateInputError(
                f"could not find {n_points} admissible sample points in {attempts} draws"
            )
        z = 2.0 * np.exp(2j * np.pi * rng.random(k))
        attempts += k
        m = t.pencil.at(z)
        admissible = pivot_condition(m) <= cond_cap
        if not np.any(admissible):
            continue
        z, m = z[admissible], m[admissible]
        points += z.tolist()
        az = eval_at(p, z)
        # np.maximum, not max: a NaN deviation must carry through to the verdict
        det_dev = np.maximum(det_dev, _det_deviation(m, az))
        cond, inv = _cond_and_inverse(az)
        good = cond <= cond_cap
        if np.any(good):
            inv = np.linalg.inv(az[good]) if inv is None else inv[good]
            err = _resolvent(t, m[good]) - inv
            dev = np.max(np.linalg.norm(err, axis=(-2, -1)) / np.linalg.norm(inv, axis=(-2, -1)))
            res_dev = dev if res_dev is None else np.maximum(res_dev, dev)
    det_dev = float(det_dev)
    res_dev = None if res_dev is None else float(res_dev)

    passed = det_dev <= tol and res_dev is not None and res_dev <= tol
    return VerifyReport(det_dev, res_dev, tol, points, passed)


def is_block_upper_hessenberg(mat: np.ndarray, r: int) -> bool:
    """True when every entry below the first r x r block subdiagonal is zero."""
    mat = np.asarray(mat)
    block = np.arange(mat.shape[0]) // r
    below = block[:, None] > block[None, :] + 1
    return not np.any(mat[below])
