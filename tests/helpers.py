"""Shared random-instance generators and independent oracles for the test suite."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import matpencil as mp
from matpencil import experiments, fixtures
from matpencil.experiments import composite_coeffs, mono_mul
from matpencil._exact import pencil_dets
from matpencil.errors import ContractError, VerificationError
from matpencil.matpoly import (CHEBYSHEV, LAGRANGE, MONOMIAL, HeightReport, MatPoly,
                               NonzeroMatrix, _common)
from matpencil.pencil import Pencil, StandardTriple

__all__ = ["rand_mat", "rand_mono", "rand_lagrange", "rand_chebyshev",
           "composite_coeffs", "mono_add", "mono_mul", "shift_left_coeffs",
           "shift_right_coeffs", "chebyshev_to_monomial", "det_poly", "ControllabilityReport",
           "controllability_matrix", "fraction_inverse", "inverse_fraction_fallback",
           "rational_pencil", "matrix_det", "height_report_reference", "run_family_sequential",
           "shift_invert_reference", "composition_reference", "elementary_reference",
           "held", "dense_family_chain"]


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
    # negative angles make the values the DFT of the coefficients
    pts = np.exp(-2j * np.pi * np.arange(p.dim * p.grade + 1) / (p.dim * p.grade + 1))
    return np.fft.ifft(np.linalg.det(mp.eval_at(p, pts)))


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


def composition_reference(rule, ta, tb=None, d0=None, c0=None):
    """(X, D, A, Y, block_meta) of a composition rule, assembled with
    `np.block`, `np.hstack`/`np.vstack` and scipy's `block_diag` as
    `constructions` did before it wrote its blocks in place (test oracle).
    rule is "shift_left" or "shift_right" (ta, d0, c0), "F1" or "F2" (ta, tb),
    or "composite" (ta, tb, d0, c0)."""
    from scipy.linalg import block_diag

    def parts(t):  # dense, also where the pencil is held as its nonzeros
        return tuple(map(np.asarray, (t.X, t.pencil.D, t.pencil.A, t.Y)))

    r, na = ta.r, ta.N
    if rule in ("shift_left", "shift_right"):
        Xa, Da, A, Ya, d0, c0 = _common(*parts(ta), d0, c0)
        if rule == "shift_left":
            return (np.hstack([np.zeros((r, r)), -Xa]), block_diag(d0, Da),
                    np.block([[np.zeros((r, r)), c0 @ Xa], [-Ya, A]]),
                    np.vstack([np.eye(r, dtype=A.dtype), np.zeros((na, r))]),
                    {"blocks": [r, na]})
        return (np.hstack([np.zeros((r, na), A.dtype), np.eye(r)]), block_diag(Da, d0),
                np.block([[A, Ya @ c0], [-Xa, np.zeros((r, r))]]),
                np.vstack([-Ya, np.zeros((r, r))]), {"blocks": [na, r]})
    nb = tb.N
    if rule in ("F1", "F2"):
        Xa, Da, A, Ya, Xb, Db, B, Yb = _common(*parts(ta), *parts(tb))
        couple = Yb @ Xa
        if rule == "F1":
            return (np.hstack([np.zeros((r, na)), Xb]), block_diag(Da, Db),
                    np.block([[A, np.zeros((na, nb))], [couple, B]]),
                    np.vstack([Ya, np.zeros((nb, r))]), {"blocks": [na, nb]})
        return (np.hstack([Xb, np.zeros((r, na))]), block_diag(Db, Da),
                np.block([[B, couple], [np.zeros((na, nb)), A]]),
                np.vstack([np.zeros((nb, r)), Ya]), {"blocks": [nb, na]})
    Xa, Da, A, Ya, Xb, Db, B, Yb, d0, c0 = _common(*parts(ta), *parts(tb), d0, c0)
    H = np.block([
        [A, np.zeros((na, r)), -Ya @ c0 @ Xb],
        [-Xa, np.zeros((r, r)), np.zeros((r, nb))],
        [np.zeros((nb, na)), -Yb, B],
    ])
    return (np.hstack([np.zeros((r, na + r)), Xb]), block_diag(Da, d0, Db), H,
            np.vstack([Ya, np.zeros((r + nb, r))]), {"blocks": [na, r, nb]})


def elementary_reference(p):
    """The second companion, barycentric Lagrange or Chebyshev colleague triple
    of p, from the builders as `constructions` wrote them with slice loops, a
    final negation (Lagrange) and a row doubling (Chebyshev) before it
    assembled them from their block tables (test oracle)."""
    return {MONOMIAL: _frobenius_reference, LAGRANGE: _lagrange_reference,
            CHEBYSHEV: _chebyshev_reference}[p.kind](p)


def _frobenius_reference(p: MatPoly) -> StandardTriple:
    """Second companion triple of a monomial polynomial (grade >= 1).

    Coefficient blocks sit in the last block column, identities on the block
    subdiagonal; D = blockdiag(I, ..., I, alpha_s).  Any leading coefficient,
    singular included, gives X (zD - A)^-1 Y = a^-1(z).
    """
    if p.kind != MONOMIAL:
        raise ContractError("second companion form needs monomial coefficients")
    s, r = p.grade, p.dim
    if s < 1:
        raise ContractError("grade must be at least 1")
    (coeffs,) = _common(p.data)
    dt = coeffs.dtype
    n = s * r
    A = np.zeros((n, n), dtype=dt)
    for i in range(1, s):
        A[i * r:(i + 1) * r, (i - 1) * r:i * r] = np.eye(r)
    for i in range(s):
        A[i * r:(i + 1) * r, (s - 1) * r:] = -coeffs[i]
    D = np.eye(n, dtype=dt)
    D[(s - 1) * r:, (s - 1) * r:] = coeffs[s]
    X = np.zeros((r, n), dtype=dt)
    X[:, (s - 1) * r:] = np.eye(r)
    Y = np.zeros((n, r), dtype=dt)
    Y[:r, :] = np.eye(r)
    return StandardTriple(X, Pencil(D, A, {"blocks": [r] * s}), Y, grade=s)


def _lagrange_reference(p: MatPoly) -> StandardTriple:
    """Barycentric Lagrange triple: node blocks on the diagonal, samples in the
    last block column, weights in the last block row.

    The pencil is (D, A) = (-A1, -A0) so that zD - A = A0 - z*A1 and the
    determinant equals det a(z) directly.
    """
    if p.kind != LAGRANGE:
        raise ContractError("lagrange triple needs a lagrange-basis polynomial")
    data, nodes, weights = _common(p.data, p.nodes, p.weights)
    dt = data.dtype
    if nodes.size < 2:
        raise ContractError("need at least two nodes")
    r = p.dim
    m = nodes.size  # = grade + 1
    n = (m + 1) * r
    A0 = np.zeros((n, n), dtype=dt)
    for k in range(m):
        A0[k * r:(k + 1) * r, k * r:(k + 1) * r] = -nodes[k] * np.eye(r)
        A0[k * r:(k + 1) * r, m * r:] = data[k]
        A0[m * r:, k * r:(k + 1) * r] = -weights[k] * np.eye(r)
    A1 = np.zeros((n, n), dtype=dt)
    A1[: m * r, : m * r] = -np.eye(m * r)
    X = np.zeros((r, n), dtype=dt)
    X[:, m * r:] = np.eye(r)
    Y = np.zeros((n, r), dtype=dt)
    for k in range(m):
        Y[k * r:(k + 1) * r, :] = np.eye(r)
    return StandardTriple(X, Pencil(-A1, -A0, {"blocks": [r] * (m + 1)}), Y, grade=p.grade)


def _chebyshev_reference(p: MatPoly) -> StandardTriple:
    """Colleague triple for a Chebyshev-basis polynomial of grade n >= 1.

    Superdiagonal halves carry the three-term recurrence; the leading
    coefficient enters through the last diagonal block of D and a correction
    in the next-to-last entry of the coefficient column.  Block rows 3..n of
    the textbook layout are doubled so the pencil determinant equals det b(z)
    exactly (the plain layout is off by 2^((2-n)r)); Y lives in the first
    block, so the resolvent is unchanged by that row scaling.
    """
    if p.kind != CHEBYSHEV:
        raise ContractError("colleague triple needs chebyshev coefficients")
    n, r = p.grade, p.dim
    if n < 1:
        raise ContractError("grade must be at least 1")
    (b,) = _common(p.data)
    dt = b.dtype
    if n == 1:
        return StandardTriple(np.eye(r, dtype=dt),
                              Pencil(b[1].copy(), -b[0], {"blocks": [r]}),
                              np.eye(r, dtype=dt), grade=1)
    N = n * r
    B0 = np.zeros((N, N), dtype=dt)
    B1 = np.eye(N, dtype=dt)
    B1[(n - 1) * r:, (n - 1) * r:] = 2.0 * b[n]
    half = 0.5 * np.eye(r)
    for i in range(n - 1):  # superdiagonal, skipping the slot the last column owns
        if i != n - 2:
            B0[i * r:(i + 1) * r, (i + 1) * r:(i + 2) * r] = half
    B0[r:2 * r, :r] = np.eye(r)
    for i in range(2, n):
        B0[i * r:(i + 1) * r, (i - 1) * r:i * r] = half
    for i in range(n):
        B0[i * r:(i + 1) * r, (n - 1) * r:] += -b[i]
    B0[(n - 2) * r:(n - 1) * r, (n - 1) * r:] += b[n]
    if n >= 3:
        B0[2 * r:, :] *= 2.0
        B1[2 * r:, :] *= 2.0
    X = np.zeros((r, N), dtype=dt)
    X[:, (n - 1) * r:] = np.eye(r)
    Y = np.zeros((N, r), dtype=dt)
    Y[:r, :] = np.eye(r)
    return StandardTriple(X, Pencil(B1, B0, {"blocks": [r] * n}), Y, grade=n)


def in_nonzero_format(m):
    """m is a NonzeroMatrix with int64 keys, strictly increasing and within
    [0, rows * cols), and no stored zero."""
    keys = m.keys
    return (isinstance(m, NonzeroMatrix) and keys.dtype == np.int64
            and bool(np.all(np.diff(keys) > 0)) and bool(np.all(m.values != 0))
            and (keys.size == 0 or 0 <= keys[0] and keys[-1] < m.size))


def held(t):
    """Triple t with its pencil's D and A held as their nonzeros."""
    p = t.pencil
    return StandardTriple(t.X, Pencil(NonzeroMatrix.from_dense(p.D),
                                      NonzeroMatrix.from_dense(p.A), p.block_meta),
                          t.Y, grade=t.grade)


def dense_family_chain(k_max):
    """The family's triples for levels 1..k_max built densely by `composite`
    from the level-1 companion, signed zeros and all (reference)."""
    h1 = mp.MatPoly.monomial_poly(np.stack([fixtures.family_constant(0), np.eye(4)]))
    out = [mp.frobenius_triple(h1)]
    for k in range(1, k_max):
        out.append(mp.composite(out[-1], out[-1], np.eye(4), fixtures.family_constant(k)))
    return out


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
    first five (reference; it raises where that loop went on drawing).  The
    shifts are real, 2 cos(2 pi t), so a real pencil is solved in real
    arithmetic.  Returns the finite eigenvalues, the infinite count and the
    shift."""
    from matpencil.eigensolve import COND_CAP, INF_TOL
    from matpencil.errors import SpectrumError
    best = None
    for _ in range(5):
        sigma = 2.0 * np.cos(2 * np.pi * rng.random())
        cond = mp.pivot_condition(sigma * p.D - p.A)
        if best is None or cond < best[1]:
            best = (sigma, cond)
    if best[1] > COND_CAP:
        raise SpectrumError("no admissible shift in the first five draws")
    sigma = best[0]
    w = np.linalg.solve(sigma * p.D - p.A, p.D)
    mu = np.linalg.eigvals(w).astype(complex)
    cutoff = INF_TOL * max(float(np.abs(w).sum(axis=1).max()), 1e-300)
    infinite = np.abs(mu) < cutoff
    return sigma - 1.0 / mu[~infinite], int(infinite.sum()), sigma
