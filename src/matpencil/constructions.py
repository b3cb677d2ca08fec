"""Composable linearizations: build big pencils with standard triples from small ones.

Five composition rules (left/right scalar shift, two product layouts, the
lower-degree addition, and the composite z*a*d0*b + c0) plus three elementary
triples (second companion, barycentric Lagrange, Chebyshev colleague).  Every
constructor's output satisfies det(zD - A) = det of the composed polynomial
and carries X, Y realizing its inverse as a resolvent.

One dtype rule (`matpoly._common`) covers every output: X, Y, D and A are float64
when all inputs are real or integer, and complex128 once any input is complex.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, StructuralError
from .matpoly import LAGRANGE, CHEBYSHEV, MONOMIAL, MatPoly, _common
from .pencil import Pencil, StandardTriple
# unused here; bench/spans.py patches these names
from .matpoly import eval_at  # noqa: F401
from .pencil import pivot_condition, resolvent_eval, verify_triple  # noqa: F401


def _square(mat, r: int, name: str) -> np.ndarray:
    (arr,) = _common(mat)
    if arr.shape != (r, r):
        raise StructuralError(f"{name} must be {r}x{r}, got {arr.shape}")
    return arr


def _matrices(t: StandardTriple) -> tuple:
    return t.X, t.pencil.D, t.pencil.A, t.Y


def scalar_shift_left(ta: StandardTriple, d0, c0) -> StandardTriple:
    """Triple for e1(z) = z * d0 * a(z) + c0."""
    r, n = ta.r, ta.N
    Xa, Da, A, Ya, d0, c0 = _common(*_matrices(ta), _square(d0, r, "d0"),
                                    _square(c0, r, "c0"))
    E1 = np.block([[np.zeros((r, r)), c0 @ Xa],
                   [-Ya, A]])
    D1 = _blockdiag(d0, Da)
    X = np.hstack([np.zeros((r, r)), -Xa])
    Y = np.vstack([np.eye(r, dtype=A.dtype), np.zeros((n, r))])
    meta = {"blocks": [r, n]}
    grade = None if ta.grade is None else ta.grade + 1
    return StandardTriple(X, Pencil(D1, E1, meta), Y, grade=grade)


def scalar_shift_right(ta: StandardTriple, d0, c0) -> StandardTriple:
    """Triple for e2(z) = z * a(z) * d0 + c0."""
    r, n = ta.r, ta.N
    Xa, Da, A, Ya, d0, c0 = _common(*_matrices(ta), _square(d0, r, "d0"),
                                    _square(c0, r, "c0"))
    E2 = np.block([[A, Ya @ c0],
                   [-Xa, np.zeros((r, r))]])
    D2 = _blockdiag(Da, d0)
    X = np.hstack([np.zeros((r, n), A.dtype), np.eye(r)])
    Y = np.vstack([-Ya, np.zeros((r, r))])
    meta = {"blocks": [n, r]}
    grade = None if ta.grade is None else ta.grade + 1
    return StandardTriple(X, Pencil(D2, E2, meta), Y, grade=grade)


def product(ta: StandardTriple, tb: StandardTriple, variant: str = "F2") -> StandardTriple:
    """Triple for a(z) * b(z); resolvent is b^-1(z) a^-1(z).

    F1 stacks the a-pencil first with the coupling block below the diagonal;
    F2 stacks the b-pencil first with the coupling block above, which is the
    layout that stays block upper Hessenberg under recursion.
    """
    if ta.r != tb.r:
        raise StructuralError("factors must share the polynomial dimension r")
    na, nb, r = ta.N, tb.N, ta.r
    Xa, Da, A, Ya, Xb, Db, B, Yb = _common(*_matrices(ta), *_matrices(tb))
    couple = Yb @ Xa
    if variant == "F1":
        F = np.block([[A, np.zeros((na, nb))], [couple, B]])
        D = _blockdiag(Da, Db)
        X = np.hstack([np.zeros((r, na)), Xb])
        Y = np.vstack([Ya, np.zeros((nb, r))])
        meta = {"blocks": [na, nb]}
    elif variant == "F2":
        F = np.block([[B, couple], [np.zeros((na, nb)), A]])
        D = _blockdiag(Db, Da)
        X = np.hstack([Xb, np.zeros((r, na))])
        Y = np.vstack([np.zeros((nb, r)), Ya])
        meta = {"blocks": [nb, na]}
    else:
        raise ContractError(f"variant must be 'F1' or 'F2', got {variant!r}")
    grade = None if None in (ta.grade, tb.grade) else ta.grade + tb.grade
    return StandardTriple(X, Pencil(D, F, meta), Y, grade=grade)


def add_lower_degree(ta: StandardTriple, c: MatPoly) -> StandardTriple:
    """Triple for a(z) + c(z), deg c < deg a, by correcting A in place.

    G = A - sum_k A^k Y c_k X keeps the pencil size and the X, Y and D of the
    input.
    """
    if c.basis.kind != MONOMIAL:
        raise ContractError("the added polynomial must be in the monomial basis")
    if ta.grade is None:
        raise ContractError("input triple does not know its grade")
    if ta.grade < 1:
        raise ContractError("cannot add to a grade-0 triple")
    if c.dim != ta.r:
        raise StructuralError("dimension mismatch between triple and added polynomial")
    if c.grade >= ta.grade:
        raise ContractError(f"deg c = {c.grade} must be below deg a = {ta.grade}")
    X, D, A, Y, cs = _common(*_matrices(ta), c.data)
    G = A.copy()
    power = Y  # A^k Y, starting at k = 0
    for k in range(c.grade + 1):
        if np.any(cs[k] != 0):
            G -= power @ cs[k] @ X
        if k < c.grade:
            power = A @ power
    return StandardTriple(X.copy(), Pencil(D.copy(), G, ta.pencil.block_meta),
                          Y.copy(), grade=ta.grade)


def composite(ta: StandardTriple, tb: StandardTriple, d0, c0) -> StandardTriple:
    """Triple for h(z) = z * a(z) * d0 * b(z) + c0, the glued three-block pencil."""
    if ta.r != tb.r:
        raise StructuralError("components must share the polynomial dimension r")
    r, na, nb = ta.r, ta.N, tb.N
    Xa, Da, A, Ya, Xb, Db, B, Yb, d0, c0 = _common(
        *_matrices(ta), *_matrices(tb), _square(d0, r, "d0"), _square(c0, r, "c0"))
    H = np.block([
        [A, np.zeros((na, r)), -Ya @ c0 @ Xb],
        [-Xa, np.zeros((r, r)), np.zeros((r, nb))],
        [np.zeros((nb, na)), -Yb, B],
    ])
    D = _blockdiag(Da, d0, Db)
    X = np.hstack([np.zeros((r, na + r)), Xb])
    Y = np.vstack([Ya, np.zeros((r + nb, r))])
    grade = None if None in (ta.grade, tb.grade) else ta.grade + tb.grade + 1
    return StandardTriple(X, Pencil(D, H, {"blocks": [na, r, nb]}), Y, grade=grade)


def _blockdiag(*mats) -> np.ndarray:
    mats = _common(*mats)
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=mats[0].dtype)
    at = 0
    for m in mats:
        k = m.shape[0]
        out[at:at + k, at:at + k] = m
        at += k
    return out


def frobenius_triple(p: MatPoly) -> StandardTriple:
    """Second companion triple of a monomial polynomial (grade >= 1).

    Coefficient blocks sit in the last block column, identities on the block
    subdiagonal; D = blockdiag(I, ..., I, alpha_s).  Any leading coefficient,
    singular included, gives X (zD - A)^-1 Y = a^-1(z).
    """
    if p.basis.kind != MONOMIAL:
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


def lagrange_triple(p: MatPoly) -> StandardTriple:
    """Barycentric Lagrange triple: node blocks on the diagonal, samples in the
    last block column, weights in the last block row.

    The pencil is (D, A) = (-A1, -A0) so that zD - A = A0 - z*A1 and the
    determinant equals det a(z) directly.
    """
    if p.basis.kind != LAGRANGE:
        raise ContractError("lagrange triple needs a lagrange-basis polynomial")
    data, nodes, weights = _common(p.data, p.basis.nodes, p.basis.weights)
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


def chebyshev_triple(p: MatPoly) -> StandardTriple:
    """Colleague triple for a Chebyshev-basis polynomial of grade n >= 1.

    Superdiagonal halves carry the three-term recurrence; the leading
    coefficient enters through the last diagonal block of D and a correction
    in the next-to-last entry of the coefficient column.  Block rows 3..n of
    the textbook layout are doubled so the pencil determinant equals det b(z)
    exactly (the plain layout is off by 2^((2-n)r)); Y lives in the first
    block, so the resolvent is unchanged by that row scaling.
    """
    if p.basis.kind != CHEBYSHEV:
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
