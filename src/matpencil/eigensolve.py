"""Generalized eigenvalues of a pencil via shift-and-invert, plus residuals
and eigenvalue/reference matching.

The reduction forms W = (sigma*D - A)^-1 D at a well-conditioned random shift
sigma and reads generalized eigenvalues off the standard spectrum of W by
z = sigma - 1/mu; mu near zero marks an infinite eigenvalue.  A pencil with
D exactly the identity is already a standard eigenproblem and is solved as one,
in A's own dtype, with no shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, SpectrumError, StructuralError
from .matpoly import _common, eval_at
from .pencil import COND_CAP, Pencil, _check_numeric, pivot_condition

BACKEND = "shift-invert + numpy eigvals"
BACKEND_STANDARD = "numpy eigvals (D = I)"
BACKEND_QZ = "lapack qz"

INF_TOL = 1e-12       # relative cutoff below which an eigenvalue is classed infinite
SHIFT_CANDIDATES = 5  # shifts drawn at once; the best-conditioned is used


@dataclass(eq=False)
class EigenReport:
    """Solved spectrum of one pencil; finite count + infinite count = N."""

    finite: np.ndarray
    infinite_count: int
    residuals: np.ndarray | None
    shift_used: complex
    backend: str = BACKEND

    @property
    def total(self) -> int:
        return len(self.finite) + self.infinite_count


def generalized_eigen(p: Pencil, rng=None, backend: str = "shift-invert") -> EigenReport:
    """All eigenvalues of det(zD - A) = 0, split into finite and infinite.

    When D is exactly the identity, the eigenvalues are those of A: no shift
    is drawn from rng, none is infinite, and shift_used is 0.  Otherwise the
    default reduction draws SHIFT_CANDIDATES random shifts on |z| = 2 at once,
    takes the first with the least 1-norm condition number (SpectrumError if
    that exceeds COND_CAP), forms W = (sigma D - A)^-1 D, and maps W's
    spectrum back by z = sigma - 1/mu.  INF_TOL is relative to
    the max row sum of W.  backend="qz" instead calls the LAPACK QZ solver on
    (A, D) directly, classifying |beta| below INF_TOL * |(alpha, beta)| as
    infinite.
    Both backends keep a real pencil real.  An object pencil, or one with a
    NaN or infinite entry, raises StructuralError.
    """
    _check_numeric(p.D, p.A)
    if not (np.isfinite(p.D).all() and np.isfinite(p.A).all()):
        raise StructuralError("the pencil has a non-finite entry")
    if backend == "qz":
        return _qz_eigen(p)
    if backend != "shift-invert":
        raise ContractError(f"unknown backend {backend!r}")
    if _is_identity(p.D):
        (A,) = _common(p.A)
        finite = np.linalg.eigvals(A).astype(complex, copy=False)
        return EigenReport(finite, 0, None, 0j, backend=BACKEND_STANDARD)
    rng = np.random.default_rng(rng)
    D, A = p.D, p.A
    sigmas = 2.0 * np.exp(2j * np.pi * rng.random(SHIFT_CANDIDATES))
    # one candidate at a time, so one N x N inverse is held at once
    conds = [pivot_condition(s * D - A) for s in sigmas]
    best = int(np.argmin(conds))
    if conds[best] > COND_CAP:
        raise SpectrumError(f"no admissible shift in {SHIFT_CANDIDATES} draws; "
                            "the pencil looks singular")
    sigma = sigmas[best]
    w = np.linalg.solve(sigma * D - A, D)
    mu = np.linalg.eigvals(w)
    scale = float(np.abs(w).sum(axis=1).max())
    cutoff = INF_TOL * max(scale, 1e-300)
    infinite = np.abs(mu) < cutoff
    finite = sigma - 1.0 / mu[~infinite]
    return EigenReport(finite, int(infinite.sum()), None, sigma)


def _is_identity(mat: np.ndarray) -> bool:
    return (np.count_nonzero(mat) == mat.shape[0]
            and bool(np.all(np.diagonal(mat) == 1)))


def _qz_eigen(p: Pencil) -> EigenReport:
    # Imported here: scipy.linalg adds about 28 MB to every program that loads
    # this package, and only the QZ backend needs it.
    import scipy.linalg

    A, D = _common(p.A, p.D)
    alpha, beta = scipy.linalg.eig(A, D, right=False, homogeneous_eigvals=True)
    infinite = np.abs(beta) <= INF_TOL * (np.abs(alpha) + np.abs(beta))
    finite = alpha[~infinite] / beta[~infinite]
    return EigenReport(finite, int(infinite.sum()), None, 0j, backend=BACKEND_QZ)


def sigma_ratio(mat: np.ndarray):
    """sigma_min / sigma_max of one matrix (a float) or of every matrix in a
    stack (an array); 0 for a zero matrix."""
    s = np.linalg.svd(np.asarray(mat, dtype=complex), compute_uv=False)
    top = s[..., 0]
    return (s[..., -1] / np.where(top == 0.0, 1.0, top))[()]  # zero matrix: 0 / 1


def residuals(p, eigs) -> np.ndarray:
    """sigma_min / sigma_max of p evaluated at each candidate eigenvalue."""
    return sigma_ratio(eval_at(p, np.asarray(eigs)))


@dataclass(eq=False)
class MatchReport:
    """Minimum-weight pairing between computed and reference values."""

    pairs: list
    forward_errors: np.ndarray
    max_error: float
    unmatched_eigs: list
    unmatched_refs: list


def match_roots(eigs, refs) -> MatchReport:
    """Pair each eigenvalue with a distinct reference so that the total
    distance is least; extras on the longer list are reported unmatched.

    When no two eigenvalues share a nearest reference, pairing each with its
    nearest is such a matching: its total is the sum of the row minima, a
    lower bound for any matching.
    """
    eigs = np.asarray(eigs, dtype=complex)
    refs = np.asarray(refs, dtype=complex)
    dist = np.abs(eigs[:, None] - refs[None, :])
    rows = np.arange(eigs.size)
    cols = dist.argmin(axis=1) if refs.size else None
    if cols is None or np.unique(cols).size < cols.size:
        # Imported here: scipy.optimize adds about 0.3 s and 20 MB to the
        # import of every program that loads this package.
        from scipy.optimize import linear_sum_assignment
        rows, cols = linear_sum_assignment(dist)
    errors = dist[rows, cols]
    return MatchReport(list(zip(rows.tolist(), cols.tolist())), errors,
                       float(errors.max()) if errors.size else 0.0,
                       sorted(set(range(eigs.size)) - set(rows.tolist())),
                       sorted(set(range(refs.size)) - set(cols.tolist())))
