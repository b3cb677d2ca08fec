"""Shared random-instance generators and independent oracles for the test suite."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import matpencil as mp
from matpencil import experiments, fixtures
from matpencil._compose import composite_coeffs, mono_mul
from matpencil._exact import pencil_dets
from matpencil.errors import VerificationError
from matpencil.matpoly import HeightReport, _common, _interp_roots_of_unity

__all__ = ["rand_mat", "rand_mono", "rand_lagrange", "rand_chebyshev",
           "composite_coeffs", "mono_add", "mono_mul", "shift_left_coeffs",
           "shift_right_coeffs", "chebyshev_to_monomial", "det_poly", "ControllabilityReport",
           "controllability_matrix", "fraction_inverse", "inverse_fraction_fallback",
           "rational_pencil", "matrix_det", "height_report_reference", "run_family_sequential",
           "shift_invert_reference"]


def mono_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of a(z) + b(z), in the `_common` dtype."""
    a, b = _common(a, b)
    if a.shape[0] < b.shape[0]:
        a, b = b, a
    out = a.copy()
    out[: b.shape[0]] += b
    return out


def _times_z_plus(prod: np.ndarray, c0) -> np.ndarray:
    """z * prod(z) + c0."""
    prod, c0 = _common(prod, c0)
    out = np.zeros((prod.shape[0] + 1,) + prod.shape[1:], dtype=prod.dtype)
    out[1:] = prod
    out[0] += c0
    return out


def shift_left_coeffs(a: np.ndarray, d0, c0) -> np.ndarray:
    """z * d0 * a(z) + c0."""
    a, d0 = _common(a, d0)
    return _times_z_plus(d0 @ a, c0)


def shift_right_coeffs(a: np.ndarray, d0, c0) -> np.ndarray:
    """z * a(z) * d0 + c0."""
    a, d0 = _common(a, d0)
    return _times_z_plus(a @ d0, c0)


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


def matrix_det(m):
    """Exact det M of a square matrix (rows, or an integer or object array):
    `_exact.pencil_dets` of z*D - A at z = 0 with D = 0 and A = -M.  The zero
    D is diagonal, so M is laid out for Hyman's method when it can be."""
    m = m if isinstance(m, np.ndarray) else np.array(m, dtype=object)
    n = len(m)
    return pencil_dets(np.zeros((n, n), dtype=np.int64), -m.reshape(n, n), [0])[0]


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
    inv = fraction_inverse(mp.mandelbrot_matrix(n).entries.toarray().tolist())
    out = np.zeros((len(inv), len(inv)), dtype=np.int64)  # wide: assumes no bound
    for i, r in enumerate(inv):
        for j, x in enumerate(r):
            if x.denominator != 1:
                raise VerificationError("inverse has a non-integer entry")
            out[i, j] = int(x)
    return out


def height_report_reference(mat):
    """matpoly.height_report as it was before it dropped its full-size
    temporaries: two float copies and three boolean masks (test oracle)."""
    arr = np.asarray(mat)
    mags = np.abs(arr).astype(float)
    height = float(mags.max()) if arr.size else 0.0
    nz = mags[mags > 0]
    t_metric = float(nz.min() / height) if nz.size else None
    zero_or_minus_one = (arr == 0) | (arr == -1)
    return HeightReport(height, t_metric, bool(np.all(zero_or_minus_one)),
                        bool(np.all(zero_or_minus_one | (arr == 1))))


def run_family_sequential(k_max, rng=None):
    """experiments.run_family as one level after another in the calling
    thread, every level drawing from rng itself (reference)."""
    rng = np.random.default_rng(rng)
    reports = []
    for k, triple in enumerate(experiments.family_triple(k_max), start=1):
        eig = experiments.generalized_eigen(triple.pencil, rng=rng)
        res = eig.residuals = experiments.sigma_ratio(fixtures.family_eval(k, eig.finite))
        hr = height_report_reference(triple.pencil.A)
        reports.append(experiments.FamilyLevelReport(
            k, triple.N, len(eig.finite), eig.infinite_count,
            float(res.max()) if res.size else 0.0,
            hr.height, hr.t_metric, 0.0, eig))
    return reports


def match_roots_reference(eigs, refs):
    """`match_roots` as it was before its nearest-reference fast path: always
    `linear_sum_assignment` (reference)."""
    from scipy.optimize import linear_sum_assignment
    eigs = np.asarray(eigs, dtype=complex)
    refs = np.asarray(refs, dtype=complex)
    dist = np.abs(eigs[:, None] - refs[None, :])
    rows, cols = linear_sum_assignment(dist)
    errors = dist[rows, cols]
    return mp.MatchReport(list(zip(rows.tolist(), cols.tolist())), errors,
                          float(errors.max()) if errors.size else 0.0,
                          sorted(set(range(eigs.size)) - set(rows.tolist())),
                          sorted(set(range(refs.size)) - set(cols.tolist())))


def shift_invert_reference(p, rng):
    """`generalized_eigen`'s shift-invert path as it was when it drew one
    scalar shift at a time and kept the first draw of least κ₁ among its
    first five (reference; it raises where that loop went on drawing).
    Returns the finite eigenvalues, the infinite count and the shift."""
    from matpencil.eigensolve import COND_CAP, INF_TOL
    from matpencil.errors import SpectrumError
    best = None
    for _ in range(5):
        sigma = 2.0 * np.exp(2j * np.pi * rng.random())
        cond = mp.pivot_condition(sigma * p.D - p.A)
        if best is None or cond < best[1]:
            best = (sigma, cond)
    if best[1] > COND_CAP:
        raise SpectrumError("no admissible shift in the first five draws")
    sigma = best[0]
    w = np.linalg.solve(sigma * p.D - p.A, p.D)
    mu = np.linalg.eigvals(w)
    cutoff = INF_TOL * max(float(np.abs(w).sum(axis=1).max()), 1e-300)
    infinite = np.abs(mu) < cutoff
    return sigma - 1.0 / mu[~infinite], int(infinite.sum()), sigma
