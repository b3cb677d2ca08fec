"""Generalized eigenvalues of a pencil via shift-and-invert, plus residuals
and eigenvalue/reference matching.

The reduction forms W = (sigma*D - A)^-1 D at a well-conditioned random shift
sigma and reads generalized eigenvalues off the standard spectrum of W by
z = sigma - 1/mu; mu near zero marks an infinite eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ContractError, SpectrumError
from .matpoly import eval_at
from .pencil import COND_CAP, Pencil, as_rng, pivot_condition

BACKEND = "shift-invert + numpy eigvals"
BACKEND_QZ = "lapack qz"

INF_TOL = 1e-12       # relative cutoff below which an eigenvalue is classed infinite
SHIFT_CANDIDATES = 5  # shift draws always tried
MAX_DRAWS = 50        # shift draws at most, while none is admissible


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

    The default reduction picks the best-conditioned of SHIFT_CANDIDATES
    random shift draws on |z| = 2 (continuing up to MAX_DRAWS until one has
    pivot condition at most COND_CAP), forms W = (sigma D - A)^-1 D, and maps
    W's spectrum back by z = sigma - 1/mu.  INF_TOL is relative to the max row
    sum of W.  backend="qz" instead calls the LAPACK QZ solver on (A, D)
    directly, classifying |beta| below INF_TOL * |(alpha, beta)| as infinite.
    """
    if backend == "qz":
        return _qz_eigen(p)
    if backend != "shift-invert":
        raise ContractError(f"unknown backend {backend!r}")
    rng = as_rng(rng)
    D = p.D.astype(complex)
    A = p.A.astype(complex)
    best = None
    for draw in range(MAX_DRAWS):
        sigma = 2.0 * np.exp(2j * np.pi * rng.random())
        cond = pivot_condition(sigma * D - A)
        if best is None or cond < best[1]:
            best = (sigma, cond)
        if draw + 1 >= SHIFT_CANDIDATES and best[1] <= COND_CAP:
            break
    if best[1] > COND_CAP:
        raise SpectrumError(
            f"no admissible shift in {MAX_DRAWS} draws; the pencil looks singular"
        )
    sigma = best[0]
    w = np.linalg.solve(sigma * D - A, D)
    mu = np.linalg.eigvals(w)
    scale = float(np.abs(w).sum(axis=1).max())
    cutoff = INF_TOL * max(scale, 1e-300)
    infinite = np.abs(mu) < cutoff
    finite = sigma - 1.0 / mu[~infinite]
    return EigenReport(finite, int(infinite.sum()), None, sigma)


def _qz_eigen(p: Pencil) -> EigenReport:
    alpha, beta = scipy.linalg.eig(p.A.astype(complex), p.D.astype(complex),
                                   right=False, homogeneous_eigvals=True)
    infinite = np.abs(beta) <= INF_TOL * (np.abs(alpha) + np.abs(beta))
    finite = alpha[~infinite] / beta[~infinite]
    return EigenReport(finite, int(infinite.sum()), None, 0j, backend=BACKEND_QZ)


def sigma_ratio(mat: np.ndarray) -> float:
    """sigma_min / sigma_max of one matrix (0 for the zero matrix)."""
    s = np.linalg.svd(np.asarray(mat, dtype=complex), compute_uv=False)
    return 0.0 if s[0] == 0.0 else float(s[-1] / s[0])


def residuals(p, eigs) -> np.ndarray:
    """sigma_min / sigma_max of p evaluated at each candidate eigenvalue."""
    return np.array([sigma_ratio(eval_at(p, z)) for z in eigs])


@dataclass(eq=False)
class MatchReport:
    """Greedy globally-closest pairing between computed and reference values."""

    pairs: list
    forward_errors: np.ndarray
    max_error: float
    unmatched_eigs: list
    unmatched_refs: list


def match_roots(eigs, refs) -> MatchReport:
    """Pair each eigenvalue with a distinct reference, globally closest first.

    For well separated data this agrees with minimum-weight matching; extras
    on the longer list are reported unmatched.
    """
    eigs = np.asarray(eigs, dtype=complex)
    refs = np.asarray(refs, dtype=complex)
    if eigs.size == 0 or refs.size == 0:
        return MatchReport([], np.zeros(0), 0.0, list(range(eigs.size)), list(range(refs.size)))
    dist = np.abs(eigs[:, None] - refs[None, :])
    order = np.argsort(dist, axis=None, kind="stable")
    used_e = np.zeros(eigs.size, dtype=bool)
    used_r = np.zeros(refs.size, dtype=bool)
    pairs = []
    errors = []
    want = min(eigs.size, refs.size)
    for flat in order:
        i, j = divmod(int(flat), refs.size)
        if used_e[i] or used_r[j]:
            continue
        used_e[i] = used_r[j] = True
        pairs.append((i, j))
        errors.append(dist[i, j])
        if len(pairs) == want:
            break
    errors = np.array(errors)
    return MatchReport(pairs, errors, float(errors.max()) if errors.size else 0.0,
                       [i for i in range(eigs.size) if not used_e[i]],
                       [j for j in range(refs.size) if not used_r[j]])
