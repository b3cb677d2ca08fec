"""Desk-scale experiment drivers: the recursive 4x4 family, the quintic-style
linearization comparison, and the mixed Lagrange/Chebyshev build.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from . import fixtures
from .constructions import composite, frobenius_triple, chebyshev_triple, lagrange_triple
from .eigensolve import EigenReport, generalized_eigen, match_roots, sigma_ratio
from .errors import ContractError
from .matpoly import MatPoly, NonzeroMatrix, _common, height_report
from .oracle import interp_charpoly, scalar_roots
from .pencil import Pencil, StandardTriple

FAMILY_DESK_CAP = 8


@dataclass
class FamilyLevelReport:
    k: int
    dim: int
    n_finite: int
    n_infinite: int
    max_residual: float
    pencil_height: float
    pencil_t_metric: float | None
    solve_seconds: float  # this level's own wall time; levels may run at once
    eigen: EigenReport


def family_triple(k_max: int) -> list[StandardTriple]:
    """Triples for h_1 .. h_{k_max}: start from the companion of z I + c_0,
    its D and A held as their nonzeros, and square through the composite
    rule with d0 = I, which keeps them so.  Each level doubles the nonzeros,
    but the dense A its solve makes quadruples, so k_max is capped at
    FAMILY_DESK_CAP."""
    if not 1 <= k_max <= FAMILY_DESK_CAP:
        raise ContractError(f"k_max must be within 1..{FAMILY_DESK_CAP}")
    h1 = frobenius_triple(MatPoly.monomial_poly(np.stack([fixtures.family_constant(0),
                                                          np.eye(4)])))
    held = Pencil(*map(NonzeroMatrix.from_dense, (h1.pencil.D, h1.pencil.A)),
                  h1.pencil.block_meta)
    out = [StandardTriple(h1.X, held, h1.Y, grade=h1.grade)]
    for k in range(1, k_max):
        t = out[-1]
        out.append(composite(t, t, np.eye(4), fixtures.family_constant(k)))
    return out


# Extended precision for residual evaluation where coefficient magnitudes
# (~1e5) would otherwise put the double-precision evaluation floor above the
# differences being measured: points in this dtype make `eval_at` evaluate in
# it.  Falls back to double where unsupported, which changes what the quintic
# comparison measures: QuinticComparison.residual_dtype records which one ran.
_WIDE = np.complex256 if hasattr(np, "complex256") else np.complex128


def run_family(k_max: int = 6, rng=None) -> list[FamilyLevelReport]:
    """Solve the recursive family for k = 1..k_max and report residuals.

    Residuals evaluate h_k at the stack of eigenvalues through the defining
    recurrence (never through expanded coefficients) and take
    sigma_min / sigma_max.

    The levels are independent eigenproblems, each solved and reported by
    `_solve_level` on one of `_family_workers(k_max)` threads.  On two, the
    calling thread solves the top level while one pool thread solves the
    others, largest first; LAPACK releases the GIL, so the top level overlaps
    the smaller ones.  On one, the pool thread solves every level.  Every
    level is handed rng, as in a sequential loop: family pencils have D = I
    and draw nothing from it, so the results do not depend on the scheduling.

    The triples hold D and A as their nonzeros (`family_triple`), and the
    height reports read those: a dense A exists only inside its own level's
    solve, and no dense D is made.  The top level's dense A and LAPACK
    buffers are the largest; made on the calling thread, they reuse the
    memory that thread's earlier work freed, where on a new pool thread they
    added to the process's peak (glibc's malloc keeps freed memory in the
    arena of the thread that freed it).
    """
    from concurrent.futures import ThreadPoolExecutor

    triples = family_triple(k_max)
    rng = np.random.default_rng(rng)
    top = k_max if _family_workers(k_max) == 2 else None
    pool = ThreadPoolExecutor(1)
    try:
        solves = {k: pool.submit(_solve_level, k, triples[k - 1], rng)
                  for k in range(k_max, 0, -1) if k != top}
        top_report = None if top is None else _solve_level(top, triples[top - 1], rng)
        return [top_report if k == top else solves[k].result() for k in range(1, k_max + 1)]
    finally:
        pool.shutdown(cancel_futures=True)


def _solve_level(k: int, triple: StandardTriple, rng) -> FamilyLevelReport:
    """Level k's report: its eigenvalues with their residuals, the height of
    its A, and the solve's own wall time."""
    t0 = time.perf_counter()
    eig = generalized_eigen(triple.pencil, rng=rng)
    elapsed = time.perf_counter() - t0
    eig.residuals = res = sigma_ratio(fixtures.family_eval(k, eig.finite))
    hr = height_report(triple.pencil.A)
    return FamilyLevelReport(k, triple.N, len(eig.finite), eig.infinite_count,
                             float(res.max()) if res.size else 0.0,
                             hr.height, hr.t_metric, elapsed, eig)


#: the variables OpenBLAS takes its thread count from, in the order it reads them
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _family_workers(k_max: int) -> int:
    """Threads run_family solves its levels on: two (the calling thread and
    one pool thread) when the usable CPUs hold two BLAS thread counts and
    there are two levels, else one (the pool thread).

    The BLAS thread count is the first positive integer among
    _BLAS_THREAD_VARS.  With none set, BLAS already runs on every core and a
    second solver thread would only oversubscribe them, so one thread runs.
    A third could not finish sooner: the top level's solve alone takes
    longer than all the others together.
    """
    for var in _BLAS_THREAD_VARS:
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas > 0:
            break
    else:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return 2 if k_max >= 2 and cpus >= 2 * blas else 1


@dataclass
class QuinticComparison:
    algebraic_max_residual: float
    frobenius_max_residual: float
    ratio: float
    algebraic_counts: tuple
    frobenius_counts: tuple
    algebraic_eigen: EigenReport
    frobenius_eigen: EigenReport
    residual_dtype: str  # dtype z a(z) b(z) + I was evaluated in: complex256, or complex128


def mono_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of a(z) b(z), stacks (deg+1, r, r) low-to-high, in their
    `_common` dtype; order matters, the factors are matrices."""
    a, b = _common(a, b)
    out = np.zeros((a.shape[0] + b.shape[0] - 1,) + a.shape[1:], dtype=a.dtype)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai @ bj
    return out


def composite_coeffs(a: np.ndarray, d0, b: np.ndarray, c0) -> np.ndarray:
    """Coefficients of z * a(z) * d0 * b(z) + c0, expanded: the quintic's
    baseline, and the one place the package multiplies coefficients out."""
    a, d0 = _common(a, d0)
    prod, c0 = _common(mono_mul(a @ d0, b), c0)
    out = np.zeros((prod.shape[0] + 1,) + prod.shape[1:], dtype=prod.dtype)
    out[1:] = prod
    out[0] += c0
    return out


def run_random_quintic() -> QuinticComparison:
    """Compare the glued linearization of z a(z) b(z) + I against the plain
    second companion of the numerically expanded degree-7 polynomial.

    Both eigenvalue sets are scored with the same residual, in one stack:
    evaluate z a(z) b(z) + I from the cubic factors directly, in _WIDE, and
    take the singular value ratio.  Both pencils are float64 and solved by
    real QZ, which draws nothing, so no seed changes the result.
    """
    r = 5
    c0 = np.eye(r)
    a = MatPoly.monomial_poly(np.stack(fixtures.QUINTIC_A))
    b = MatPoly.monomial_poly(np.stack(fixtures.quintic_b_coeffs()))

    glued = composite(frobenius_triple(a), frobenius_triple(b), np.eye(r), c0)
    expanded = composite_coeffs(a.data, np.eye(r), b.data, c0)
    direct = frobenius_triple(MatPoly.monomial_poly(expanded))

    # Both sides go through the same plain QZ solve: the comparison is about
    # the two constructions, and the shift-invert reduction would quietly
    # rebalance the badly scaled expanded companion.
    eig_glued = generalized_eigen(glued.pencil, backend="qz")
    eig_direct = generalized_eigen(direct.pencil, backend="qz")
    z = np.concatenate([eig_glued.finite, eig_direct.finite]).astype(_WIDE)
    res = sigma_ratio(z[:, None, None] * (a.eval(z) @ b.eval(z)) + c0)
    res_glued, res_direct = np.split(res, [len(eig_glued.finite)])
    eig_glued.residuals = res_glued
    eig_direct.residuals = res_direct
    worst_glued = float(res_glued.max())
    worst_direct = float(res_direct.max())
    return QuinticComparison(
        worst_glued, worst_direct,
        worst_direct / worst_glued if worst_glued else np.inf,
        (len(eig_glued.finite), eig_glued.infinite_count),
        (len(eig_direct.finite), eig_direct.infinite_count),
        eig_glued, eig_direct, np.dtype(_WIDE).name)


@dataclass
class MixedBasisReport:
    dim: int
    blocks: list
    n_finite: int
    n_infinite: int
    max_forward_error: float
    oracle_degree: int
    eigen: EigenReport
    c0_note: str = "constant term c0 = I (not pinned by the source data)"


def run_mixed_basis(rng=None) -> MixedBasisReport:
    """Glue a barycentric-Lagrange cubic with a Chebyshev cubic and check the
    eigenvalues against roots of the interpolated characteristic polynomial."""
    rng = np.random.default_rng(rng)
    a = fixtures.mixed_lagrange_poly()
    b = fixtures.mixed_chebyshev_poly()
    r = a.dim
    t = composite(lagrange_triple(a), chebyshev_triple(b), np.eye(r), np.eye(r))
    eig = generalized_eigen(t.pencil, rng=rng)
    coeffs = interp_charpoly(t.pencil)
    refs = scalar_roots(coeffs)
    match = match_roots(eig.finite, refs)
    z = eig.finite
    eig.residuals = sigma_ratio(z[:, None, None] * (a.eval(z) @ b.eval(z)) + np.eye(r))
    return MixedBasisReport(
        t.N, t.pencil.block_meta["blocks"], len(eig.finite), eig.infinite_count,
        match.max_error, len(refs), eig)
