import hashlib
import os
import threading
import time

import numpy as np
import pytest

import matpencil as mp
from matpencil import experiments, fixtures
from matpencil.eigensolve import sigma_ratio
from matpencil.errors import ContractError, SpectrumError

from helpers import run_family_sequential


def test_fixture_shapes_and_structure():
    assert len(fixtures.FAMILY_CONSTANTS) == 12
    for c in fixtures.FAMILY_CONSTANTS:
        assert c.shape == (4, 4)
        assert np.all(np.diag(c) == 0)
        assert np.all(np.diag(c, -1) == -1)
        assert mp.is_block_upper_hessenberg(c, 1)
        assert abs(np.linalg.det(c)) > 1e-9  # nonsingular, per the family's rules


def _checksum(mats) -> str:
    """Stable content hash of the fixture matrices."""
    h = hashlib.sha256()
    for m in mats:
        arr = np.asarray(m, dtype=float)
        h.update(str(arr.shape).encode())
        h.update(",".join(repr(float(x)) for x in arr.ravel()).encode())
    return h.hexdigest()


def test_fixture_checksums():
    # guard the embedded data against silent edits
    assert _checksum(fixtures.FAMILY_CONSTANTS) == \
        "155dfb4fdcd5361e04f12e59239555ddaa94bedec031dab998402b55492096cb"
    assert _checksum(fixtures.QUINTIC_A) == \
        "3d213fb406506baec1d1a9b53efd6f4c02058ef9391ab9dae0f891425c986d70"
    assert _checksum([fixtures.QUINTIC_B0]) == \
        "b0372e7e4ce9746d5dc5d9effca1c89e894a5ca7046c3d008c89d9966d092569"
    assert _checksum(fixtures.MIXED_SAMPLES) == \
        "165656a68f9cc5f155acb2fc18d82c89064ca6869f0fbe5e39d6337cc2b5044f"
    assert _checksum(fixtures.MIXED_CHEB) == \
        "42c457294468a1433dce8f783cc0df0190f98752ae698e70b461d31565d3974c"
    assert _checksum([fixtures.MIXED_NODES, fixtures.MIXED_WEIGHTS]) == \
        "17059cfb6a1edb222bf48c8b842bfc1e32d8ec15abb5760a1056b1f9a350387c"


def test_fixture_sample_entries_spot_checks():
    assert fixtures.FAMILY_CONSTANTS[0][0].tolist() == [0, -1, -1, -1]
    assert fixtures.FAMILY_CONSTANTS[6][2].tolist() == [0, -1, 0, -1]
    assert fixtures.QUINTIC_A[0][0][0] == -81 and fixtures.QUINTIC_A[3][4][3] == 88
    assert fixtures.QUINTIC_B0[2][4] == -91
    assert fixtures.MIXED_SAMPLES[1][0].tolist() == [-0.875, -0.5, -1.25]
    assert fixtures.MIXED_CHEB[3].tolist() == np.eye(3).tolist()


def test_quintic_b_choice_cancels_top_product_coefficients():
    from matpencil.experiments import mono_mul
    a = np.stack(fixtures.QUINTIC_A)
    b = np.stack(fixtures.quintic_b_coeffs())
    ab = mono_mul(a, b)
    scale = max(np.abs(ab[k]).max() for k in range(7))
    assert np.abs(ab[6] - np.eye(5)).max() <= 1e-12 * scale
    assert np.abs(ab[5]).max() <= 1e-9 * scale
    assert np.abs(ab[4]).max() <= 1e-9 * scale


def test_family_dimensions_and_grades():
    reports = experiments.run_family(4, rng=0)
    assert [r.dim for r in reports] == [4 * (2 ** k - 1) for k in range(1, 5)]
    assert all(r.n_finite + r.n_infinite == r.dim for r in reports)
    assert all(r.pencil_height == 1.0 for r in reports)


def test_family_eval_matches_triple_determinant():
    t = experiments.family_triple(3)[-1]
    for z in (0.4, -0.9, 1.1 + 0.6j):
        want = np.linalg.det(fixtures.family_eval(3, z))
        assert mp.pencil_det_at(t.pencil, z) == pytest.approx(want, rel=1e-9)


def _family_eval_one(k, z):
    # the one-point recurrence family_eval ran before it took a stack of points
    h = z * np.eye(4, dtype=complex) + fixtures.family_constant(0)
    for j in range(1, k):
        h = z * (h @ h) + fixtures.family_constant(j)
    return h


def test_family_eval_stack_equals_scalar_calls():
    pts = np.array([[0.4, -0.9 + 0.1j, 1.1 + 0.6j], [-2.0, 0.0, 3j]])
    for k in (1, 3, 6):
        stack = fixtures.family_eval(k, pts)
        assert stack.shape == (2, 3, 4, 4) and stack.dtype == complex
        scalar = np.array([[fixtures.family_eval(k, z) for z in row] for row in pts])
        assert stack.tobytes() == scalar.tobytes()
        for z, h in zip(pts.ravel(), stack.reshape(-1, 4, 4)):
            assert h.tobytes() == _family_eval_one(k, z).tobytes()
        # extended points are evaluated in extended precision
        wide = fixtures.family_eval(k, pts.astype(experiments._WIDE))
        assert wide.dtype == experiments._WIDE
        scale = np.abs(stack).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(wide.astype(complex) - stack) <= 1e-13 * scale)
    one = fixtures.family_eval(2, 0.5)
    assert one.shape == (4, 4) and one.dtype == np.float64  # a real point stays real
    assert one.tobytes() == _family_eval_one(2, 0.5).real.tobytes()


def _horner_wide(coeffs, z):
    # the extended-precision Horner evaluator the quintic residual used per point
    acc = np.zeros(coeffs.shape[1:], dtype=experiments._WIDE)
    zw = experiments._WIDE(z)
    for c in np.asarray(coeffs, dtype=experiments._WIDE)[::-1]:
        acc = acc * zw + c
    return acc


def _same_bits(got, want):
    want = np.array(want)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_stacked_residuals_equal_per_point_loops():
    # reference: the per-eigenvalue loops each driver ran before scoring one stack
    for rep in experiments.run_family(5, rng=0):
        want = [sigma_ratio(_family_eval_one(rep.k, z)) for z in rep.eigen.finite]
        assert _same_bits(rep.eigen.residuals, want)
        assert rep.max_residual == max(want)

    q = experiments.run_random_quintic()
    a, b = np.stack(fixtures.QUINTIC_A), np.stack(fixtures.quintic_b_coeffs())
    wide = experiments._WIDE
    for eig, worst in ((q.algebraic_eigen, q.algebraic_max_residual),
                       (q.frobenius_eigen, q.frobenius_max_residual)):
        want = [sigma_ratio((wide(z) * (_horner_wide(a, z) @ _horner_wide(b, z))
                             + np.eye(5).astype(wide)).astype(complex))
                for z in eig.finite]
        assert _same_bits(eig.residuals, want)
        assert worst == max(want)

    m = experiments.run_mixed_basis(rng=0)
    a, b = fixtures.mixed_lagrange_poly(), fixtures.mixed_chebyshev_poly()
    want = [sigma_ratio(z * (a.eval(z) @ b.eval(z)) + np.eye(3)) for z in m.eigen.finite]
    assert _same_bits(m.eigen.residuals, want)


def test_family_cap():
    with pytest.raises(ContractError):
        experiments.run_family(9)


@pytest.mark.parametrize("k_max", [0, experiments.FAMILY_DESK_CAP + 1])
def test_family_triple_cap(k_max):
    # k = 9 alone would be a 2,044-dim pencil (about 114 MB at its peak)
    with pytest.raises(ContractError, match="k_max must be within 1..8"):
        experiments.family_triple(k_max)


def test_quintic_counts():
    rep = experiments.run_random_quintic()
    assert rep.algebraic_counts == (35, 0)
    assert rep.frobenius_counts == (35, 0)
    assert rep.ratio > 1.0


def test_quintic_solves_both_pencils_in_real_arithmetic(monkeypatch):
    # the glued pencil and the expanded companion are both float64, so the
    # comparison runs both through real QZ
    seen = []
    solve = experiments.generalized_eigen

    def spy(p, **kwargs):
        seen.append((p.D.dtype, p.A.dtype, kwargs.get("backend")))
        return solve(p, **kwargs)

    monkeypatch.setattr(experiments, "generalized_eigen", spy)
    experiments.run_random_quintic()
    assert seen == [(np.float64, np.float64, "qz")] * 2


def test_mixed_report_structure():
    rep = experiments.run_mixed_basis(rng=0)
    assert rep.dim == 27 and rep.blocks == [15, 3, 9]
    assert rep.n_finite == rep.oracle_degree == 21
    assert rep.n_infinite == 6 >= 3
    assert "c0" in rep.c0_note


# ---------------------------------------------------------------------------
# run_family's levels on a thread pool
# ---------------------------------------------------------------------------

def _report_fields(rep):
    e = rep.eigen
    return (rep.k, rep.dim, rep.n_finite, rep.n_infinite, rep.max_residual, rep.pencil_height,
            rep.pencil_t_metric, e.finite.dtype, e.finite.tobytes(), e.residuals.dtype,
            e.residuals.tobytes(), e.infinite_count, e.shift_used, e.backend)


@pytest.mark.parametrize("workers", [1, 2])
def test_concurrent_family_equals_sequential_reference(monkeypatch, workers):
    solve, caller = experiments.generalized_eigen, threading.current_thread()
    solved_on = []  # (thread, N) of each solve

    def spy(p, **kwargs):
        solved_on.append((threading.current_thread(), p.N))
        return solve(p, **kwargs)

    monkeypatch.setattr(experiments, "_family_workers", lambda k_max: workers)
    for k_max in range(1, 7):
        want = [_report_fields(r) for r in run_family_sequential(k_max, rng=k_max)]
        solved_on.clear()
        rng = np.random.default_rng(k_max)
        with monkeypatch.context() as m:
            m.setattr(experiments, "generalized_eigen", spy)
            got = experiments.run_family(k_max, rng=rng)
        assert [_report_fields(r) for r in got] == want
        # on two threads the caller solves the top level and one pool thread
        # every other; on one, the pool thread solves them all
        assert [n for t, n in solved_on if t is caller] == ([got[-1].dim] if workers == 2
                                                            else [])
        pool_threads = {t for t, _ in solved_on if t is not caller}
        assert len(pool_threads) == (0 if workers == 2 and k_max == 1 else 1)
        assert len(solved_on) == k_max
        # the levels draw nothing, so the caller's stream is where it was
        assert rng.random() == np.random.default_rng(k_max).random()


def test_family_level_error_propagates_and_its_threads_end(monkeypatch):
    solve = experiments.generalized_eigen

    def fail_at_level_1(p, **kwargs):
        if p.N == 4:
            raise SpectrumError("level 1 refused")
        if p.N == 12:
            time.sleep(0.3)  # level 2 still runs when level 1's error is read
        return solve(p, **kwargs)

    monkeypatch.setattr(experiments, "_family_workers", lambda k_max: 2)
    monkeypatch.setattr(experiments, "generalized_eigen", fail_at_level_1)
    baseline = threading.active_count()
    with pytest.raises(SpectrumError, match="level 1 refused"):
        experiments.run_family(6, rng=0)
    assert threading.active_count() == baseline


def test_family_worker_rule(monkeypatch):
    def workers(k_max, cpus, **env):
        for var in experiments._BLAS_THREAD_VARS + ("MKL_NUM_THREADS",):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        return experiments._family_workers(k_max)

    for k_max in range(1, 9):
        two = min(k_max, 2)
        assert workers(k_max, 2) == 1  # uncapped BLAS already uses every core
        assert workers(k_max, 2, OPENBLAS_NUM_THREADS="1") == two
        assert workers(k_max, 16, OPENBLAS_NUM_THREADS="1") == two  # never more than two
        assert workers(k_max, 16, OMP_NUM_THREADS="8") == two
        # OpenBLAS does not read MKL_NUM_THREADS, so it leaves BLAS uncapped
        assert workers(k_max, 2, MKL_NUM_THREADS="1") == 1
        # "0" and "abc" are not thread counts: the next variable decides
        assert workers(k_max, 2, OPENBLAS_NUM_THREADS="0", OMP_NUM_THREADS="1") == two
        assert workers(k_max, 2, OPENBLAS_NUM_THREADS="abc", OMP_NUM_THREADS="1") == two
        assert workers(k_max, 2, OPENBLAS_NUM_THREADS="0", OMP_NUM_THREADS="abc") == 1
    assert workers(8, 2, OPENBLAS_NUM_THREADS="2") == 1
    assert workers(8, 3, OMP_NUM_THREADS="2") == 1
    assert workers(8, 4, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="1") == 2
    assert workers(8, 2, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="1") == 1  # first one wins
    assert workers(8, 1, OMP_NUM_THREADS="1") == 1

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert experiments._family_workers(8) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert experiments._family_workers(8) == 2
