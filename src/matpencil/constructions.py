"""Composable linearizations: build big pencils with standard triples from small ones.

Five composition rules (left/right scalar shift, two product layouts, the
lower-degree addition, and the composite z*a*d0*b + c0) plus three elementary
triples (second companion, barycentric Lagrange, Chebyshev colleague).  Every
constructor's output satisfies det(zD - A) = det of the composed polynomial
and carries X, Y realizing its inverse as a resolvent.

One dtype rule (`matpoly._common`) covers every output: X, Y, D and A are float64
when all inputs are real or integer, and complex128 once any input is complex.
Each constructor applies it once, in one `_common` call over all its inputs,
before any block arithmetic: a real block negated and then made complex would
carry +0.0 imaginary parts where the complex block negated carries -0.0.
One form rule goes beside it: when any block of A or D is held as its nonzeros
(`NonzeroMatrix`), the output's D and A are held as their nonzeros too, and
dense inputs give dense outputs; X and Y, r x N, are always dense.  Zeros,
signed ones among them, are not stored.
Each constructor states its block table once, in one call to `_triple`: the
blocks of A, the diagonal blocks of D, and the blocks of X's one block row and
Y's one block column.  `_triple` allocates each dense matrix once, as zeros in
that dtype, and writes the blocks, with their final signs and scalings, into
it by slice (`_assemble`); a held one is its blocks' nonzeros, each shifted to
its block's offset, in one concatenation (`_assemble_nonzeros`).  No negation
or scaling of a whole matrix follows.  The coupling blocks Y c X of `product`
and `composite` are given as their two thin factors (`_Outer`), so a held
output forms them only over the nonzero rows of Y and columns of X.
`add_lower_degree` alone keeps its input's layout: it corrects a dense copy
of A.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import ContractError, StructuralError
from .matpoly import LAGRANGE, CHEBYSHEV, MONOMIAL, MatPoly, NonzeroMatrix, _common, _entries
from .pencil import Pencil, StandardTriple, _check_numeric
# unused here; bench/spans.py patches these names
from .matpoly import eval_at  # noqa: F401
from .pencil import pivot_condition, resolvent_eval, verify_triple  # noqa: F401


def _square(mat, r: int, name: str):
    """mat itself, once its shape is checked; the constructor's `_common` casts it."""
    try:
        shape = np.shape(mat)
    except ValueError:  # a nested list with rows of different lengths
        shape = "ragged rows"
    if shape != (r, r):
        raise StructuralError(f"{name} must be {r}x{r}, got {shape}")
    return mat


def _matrices(t: StandardTriple) -> tuple:
    return t.X, t.pencil.D, t.pencil.A, t.Y


def _grade(extra: int, *parts: StandardTriple) -> int | None:
    """The parts' grades summed, plus `extra`; None when any part's is unknown."""
    grades = [t.grade for t in parts]
    return None if None in grades else sum(grades) + extra


class _Outer(NamedTuple):
    """The block left @ right, given as its thin factors (n x r and r x m)."""

    left: np.ndarray
    right: np.ndarray


def _triple(sizes: list[int], a_blocks: dict, d_blocks: list, x_blocks: dict,
            y_blocks: dict, grade: int | None) -> StandardTriple:
    """The triple whose pencil has block sizes `sizes`: A has the blocks
    a_blocks[i, j], D = blockdiag(d_blocks), and X (one block row) and Y (one
    block column) have the blocks x_blocks[j] and y_blocks[i].  The blocks
    share one dtype, the one the constructor's `_common` chose, and all four
    are assembled in it, read off X's first block; D and A are held as their
    nonzeros when a block of either is."""
    x_first = next(iter(x_blocks.values()))
    r, dt = x_first.shape[0], x_first.dtype
    held = NonzeroMatrix in map(type, (*a_blocks.values(), *d_blocks))
    square = _assemble_nonzeros if held else _assemble
    A = square(sizes, sizes, dt, a_blocks)
    D = square(sizes, sizes, dt, {(i, i): b for i, b in enumerate(d_blocks)})
    X = _assemble([r], sizes, dt, {(0, j): b for j, b in x_blocks.items()})
    Y = _assemble(sizes, [r], dt, {(i, 0): b for i, b in y_blocks.items()})
    return StandardTriple(X, Pencil(D, A, {"blocks": sizes}), Y, grade=grade)


def scalar_shift_left(ta: StandardTriple, d0, c0) -> StandardTriple:
    """Triple for e1(z) = z * d0 * a(z) + c0."""
    r, n = ta.r, ta.N
    Xa, Da, A, Ya, d0, c0 = _common(*_matrices(ta), _square(d0, r, "d0"),
                                    _square(c0, r, "c0"))
    return _triple([r, n], {(0, 1): c0 @ Xa, (1, 0): -Ya, (1, 1): A}, [d0, Da],
                   {1: -Xa}, {0: np.eye(r, dtype=A.dtype)}, _grade(1, ta))


def scalar_shift_right(ta: StandardTriple, d0, c0) -> StandardTriple:
    """Triple for e2(z) = z * a(z) * d0 + c0."""
    r, n = ta.r, ta.N
    Xa, Da, A, Ya, d0, c0 = _common(*_matrices(ta), _square(d0, r, "d0"),
                                    _square(c0, r, "c0"))
    return _triple([n, r], {(0, 0): A, (0, 1): Ya @ c0, (1, 0): -Xa}, [Da, d0],
                   {1: np.eye(r, dtype=A.dtype)}, {0: -Ya}, _grade(1, ta))


def product(ta: StandardTriple, tb: StandardTriple, variant: str = "F2") -> StandardTriple:
    """Triple for a(z) * b(z); resolvent is b^-1(z) a^-1(z).

    F1 stacks the a-pencil first with the coupling block below the diagonal;
    F2 stacks the b-pencil first with the coupling block above, which is the
    layout that stays block upper Hessenberg under recursion.
    """
    if ta.r != tb.r:
        raise StructuralError("factors must share the polynomial dimension r")
    Xa, Da, A, Ya, Xb, Db, B, Yb = _common(*_matrices(ta), *_matrices(tb))
    couple, grade = _Outer(Yb, Xa), _grade(0, ta, tb)
    if variant == "F1":
        return _triple([ta.N, tb.N], {(0, 0): A, (1, 0): couple, (1, 1): B}, [Da, Db],
                       {1: Xb}, {0: Ya}, grade)
    if variant == "F2":
        return _triple([tb.N, ta.N], {(0, 0): B, (0, 1): couple, (1, 1): A}, [Db, Da],
                       {0: Xb}, {1: Ya}, grade)
    raise ContractError(f"variant must be 'F1' or 'F2', got {variant!r}")


def add_lower_degree(ta: StandardTriple, c: MatPoly) -> StandardTriple:
    """Triple for a(z) + c(z), deg c < deg a, by correcting A in place.

    G = A - sum_k u_k c_k X keeps the pencil size and the X, Y and D of the
    input.  The chain u_0 = Y, u_{k+1} = A w_k, with D w_k = u_k and
    X w_k = 0, gives X (zD - A)^-1 u_k = z^k a^-1(z), so the resolvent of the
    result is (a + c)^-1 (Sherman-Morrison-Woodbury).  On a companion chain
    w_k = u_k, and u_k = A^k Y.  ContractError when some w_k does not exist.
    """
    if c.kind != MONOMIAL:
        raise ContractError("the added polynomial must be in the monomial basis")
    if ta.grade is None:
        raise ContractError("input triple does not know its grade")
    if ta.grade < 1:
        raise ContractError("cannot add to a grade-0 triple")
    if c.dim != ta.r:
        raise StructuralError("dimension mismatch between triple and added polynomial")
    if c.grade >= ta.grade:
        raise ContractError(f"deg c = {c.grade} must be below deg a = {ta.grade}")
    X, D, A, Y, cs = _common(*map(np.asarray, _matrices(ta)), c.data)
    G = A.copy()
    u, factors = Y, (Y,)  # u and the factors whose norms scale its rounding error
    for k in range(c.grade + 1):
        if np.any(cs[k] != 0):
            G -= u @ cs[k] @ X
        if k < c.grade:
            w = _chain_step(D, X, u, factors)
            u, factors = A @ w, (A, w)
    return StandardTriple(X.copy(), Pencil(D.copy(), G, ta.pencil.block_meta),
                          Y.copy(), grade=ta.grade)


#: relative residual of [D; X] w = [u; 0] above which w counts as not existing
CHAIN_TOL = 1e-12


def _chain_step(D, X, u, factors: tuple) -> np.ndarray:
    """w with D w = u and X w = 0: u itself where that holds exactly (a
    companion chain), else the least-squares solution of the stacked system,
    whose residual must lie within CHAIN_TOL of the scale of its terms and of
    u's own rounding error, the product of the norms of u's `factors`.  That
    solve needs numeric data: an object (e.g. Fraction) chain that leaves the
    exact companion path raises StructuralError."""
    if np.array_equal(D @ u, u) and not np.any(X @ u):
        return u
    _check_numeric(D, X, u)
    err = math.prod(map(np.linalg.norm, factors))
    M = np.vstack([D, X])
    rhs = np.vstack([u, np.zeros((X.shape[0], u.shape[1]), u.dtype)])
    w = np.linalg.lstsq(M, rhs, rcond=None)[0]
    if np.linalg.norm(M @ w - rhs) > CHAIN_TOL * (np.linalg.norm(M) * np.linalg.norm(w) + err):
        raise ContractError("cannot add: D w = u, X w = 0 has no solution along the chain")
    return w


def composite(ta: StandardTriple, tb: StandardTriple, d0, c0) -> StandardTriple:
    """Triple for h(z) = z * a(z) * d0 * b(z) + c0, the glued three-block pencil."""
    if ta.r != tb.r:
        raise StructuralError("components must share the polynomial dimension r")
    r = ta.r
    Xa, Da, A, Ya, Xb, Db, B, Yb, d0, c0 = _common(
        *_matrices(ta), *_matrices(tb), _square(d0, r, "d0"), _square(c0, r, "c0"))
    return _triple([ta.N, r, tb.N], {(0, 0): A, (0, 2): _Outer(-Ya @ c0, Xb), (1, 0): -Xa,
                                     (2, 1): -Yb, (2, 2): B},
                   [Da, d0, Db], {2: Xb}, {0: Ya}, _grade(1, ta, tb))


def _assemble(rows: list[int], cols: list[int], dtype, blocks: dict) -> np.ndarray:
    """The matrix with block row heights `rows` and block column widths `cols`:
    zeros of `dtype`, with blocks[i, j] written into block (i, j)."""
    out = np.zeros((sum(rows), sum(cols)), dtype)
    r_at, c_at = list(accumulate(rows, initial=0)), list(accumulate(cols, initial=0))
    for (i, j), block in blocks.items():
        if isinstance(block, _Outer):
            block = block.left @ block.right
        out[r_at[i]:r_at[i + 1], c_at[j]:c_at[j + 1]] = block
    return out


def _assemble_nonzeros(rows: list[int], cols: list[int], dtype, blocks: dict) -> NonzeroMatrix:
    """`_assemble`'s matrix held as its nonzeros: each block's nonzeros, at
    their rows and columns shifted by the block's offset, in one
    concatenation, sorted by key (`NonzeroMatrix.summed`)."""
    r_at, c_at = list(accumulate(rows, initial=0)), list(accumulate(cols, initial=0))
    keys, values = [], []
    for (i, j), block in blocks.items():
        block_rows, block_cols, block_values = _nonzeros(block)
        keys.append((r_at[i] + block_rows) * c_at[-1] + c_at[j] + block_cols)
        values.append(block_values)
    return NonzeroMatrix.summed((r_at[-1], c_at[-1]), np.concatenate(keys),
                                np.concatenate(values).astype(dtype, copy=False))


def _nonzeros(block) -> tuple:
    """Rows, columns and values of the nonzeros of one block (`_entries`); an
    `_Outer`'s product is formed over left's nonzero rows and right's nonzero columns."""
    if not isinstance(block, _Outer):
        return _entries(block)
    rows, cols = np.flatnonzero(block.left.any(axis=1)), np.flatnonzero(block.right.any(axis=0))
    sub_rows, sub_cols, values = _entries(block.left[rows] @ block.right[:, cols])
    return rows[sub_rows], cols[sub_cols], values


def frobenius_triple(p: MatPoly) -> StandardTriple:
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
    eye = np.eye(r, dtype=coeffs.dtype)
    blocks = {(i, i - 1): eye for i in range(1, s)}
    blocks.update({(i, s - 1): block for i, block in enumerate(-coeffs[:s])})
    return _triple([r] * s, blocks, [eye] * (s - 1) + [coeffs[s]], {s - 1: eye}, {0: eye}, s)


def lagrange_triple(p: MatPoly) -> StandardTriple:
    """Barycentric Lagrange triple over m = grade + 1 nodes, m + 1 blocks.

    D = blockdiag(I, ..., I, 0); A has tau_k I on the diagonal, the negated
    samples -a_k in the last block column and the weights beta_k I in the last
    block row, so det(zD - A) = w(z)^r det(sum_k beta_k a_k / (z - tau_k)) =
    det a(z) directly.
    """
    if p.kind != LAGRANGE:
        raise ContractError("lagrange triple needs a lagrange-basis polynomial")
    data, nodes, weights = _common(p.data, p.nodes, p.weights)
    if nodes.size < 2:
        raise ContractError("need at least two nodes")
    r, m, eye = p.dim, nodes.size, np.eye(p.dim, dtype=data.dtype)
    taus, betas = nodes[:, None, None] * eye, weights[:, None, None] * eye
    blocks = {(k, k): taus[k] for k in range(m)}
    blocks.update({(k, m): block for k, block in enumerate(-data)})
    blocks.update({(m, k): betas[k] for k in range(m)})
    return _triple([r] * (m + 1), blocks, [eye] * m + [0 * eye], {m: eye},
                   dict.fromkeys(range(m), eye), p.grade)


def chebyshev_triple(p: MatPoly) -> StandardTriple:
    """Colleague triple for a Chebyshev-basis polynomial of grade n >= 1.

    Off-diagonal blocks carry the three-term recurrence, -b_i fills the last
    block column, and the leading coefficient enters through D's last block,
    2 b_n, and a correction b_n in the next-to-last block of that column.
    Block rows 2.. (from 0) are written doubled, so the pencil determinant
    equals det b(z) exactly (the plain layout is off by 2^((2-n)r)); Y lives
    in the first block, so the resolvent is unchanged by that row scaling.
    """
    if p.kind != CHEBYSHEV:
        raise ContractError("colleague triple needs chebyshev coefficients")
    n, r = p.grade, p.dim
    if n < 1:
        raise ContractError("grade must be at least 1")
    (b,) = _common(p.data)
    sizes, eye = [r] * n, np.eye(r, dtype=b.dtype)
    if n == 1:  # b(z) = b_0 + b_1 z is its own pencil
        return _triple(sizes, {(0, 0): -b[0]}, [b[1]], {0: eye}, {0: eye}, 1)

    def row(i, block):  # block rows 2.. are written doubled
        return 2 * block if i >= 2 else block

    half = (Fraction(1, 2) if b.dtype == object else 0.5) * eye  # exact on object data
    blocks = {(i, i + 1): row(i, half) for i in range(n - 2)}
    blocks.update({(i, i - 1): eye for i in range(1, n)})
    blocks.update({(i, n - 1): row(i, -b[i]) for i in range(n)})
    blocks[n - 2, n - 1] = row(n - 2, b[n] - b[n - 2])
    d_blocks = [row(i, eye) for i in range(n - 1)] + [row(n - 1, 2 * b[n])]
    return _triple(sizes, blocks, d_blocks, {n - 1: eye}, {0: eye}, n)
