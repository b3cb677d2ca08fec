import os
import subprocess
import sys

import numpy as np
import pytest

import matpencil as mp
from matpencil.errors import SpectrumError, StructuralError

from helpers import match_roots_reference, rand_mat, rational_pencil, shift_invert_reference


def test_standard_diagonal_pencil():
    rep = mp.generalized_eigen(mp.Pencil(np.eye(3), np.diag([1.0, 2.0, 3.0])), rng=0)
    assert rep.infinite_count == 0
    np.testing.assert_allclose(np.sort(rep.finite.real), [1, 2, 3], atol=1e-12)
    assert rep.total == 3


def test_singular_d_gives_infinite_eigenvalue():
    rep = mp.generalized_eigen(mp.Pencil(np.diag([1.0, 0.0]), np.diag([2.0, 1.0])), rng=0)
    assert rep.infinite_count == 1
    np.testing.assert_allclose(rep.finite, [2.0], atol=1e-12)


def test_mandelbrot_level4_roots_match_scalar_solver():
    m = mp.mandelbrot_matrix(4)
    pencil = mp.Pencil(np.eye(7), m.entries.toarray().astype(float))
    rep = mp.generalized_eigen(pencil, rng=1)
    refs = mp.scalar_roots([float(c) for c in mp.mandelbrot_poly_coeffs(4)])
    assert len(rep.finite) == 7
    assert mp.match_roots(rep.finite, refs).max_error <= 1e-8


def test_residual_examples():
    p = mp.MatPoly.monomial_poly([1.0, 1.0])
    assert mp.residuals(p, [-1.0])[0] <= 1e-14

    const = mp.MatPoly.monomial_poly(np.eye(3).reshape(1, 3, 3))
    np.testing.assert_allclose(mp.residuals(const, [0.3, -2.0, 1.0j]), 1.0)


def test_residuals_in_unit_interval():
    rng = np.random.default_rng(2)
    p = mp.MatPoly.monomial_poly(np.stack([rand_mat(rng, 3) for _ in range(3)]))
    res = mp.residuals(p, rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6))
    assert np.all(res >= 0) and np.all(res <= 1)


def test_match_roots_examples():
    vals = np.array([1.0, 2.0, 3.0 + 1.0j])
    assert mp.match_roots(vals, vals).max_error == 0
    assert mp.match_roots(vals, vals[::-1]).max_error == 0
    perturbed = vals.copy()
    perturbed[1] += 1e-6
    assert mp.match_roots(vals, perturbed).max_error == pytest.approx(1e-6)


def test_match_roots_unequal_lengths():
    rep = mp.match_roots([1.0, 2.0], [1.0, 2.0, 9.0])
    assert len(rep.pairs) == 2 and rep.unmatched_refs == [2]


def test_count_conservation_across_random_pencils():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        pencil = mp.Pencil(rand_mat(rng, n), rand_mat(rng, n))
        rep = mp.generalized_eigen(pencil, rng=rng)
        assert rep.total == n


def test_shift_invariance():
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = int(rng.integers(4, 24))
        pencil = mp.Pencil(rand_mat(rng, n), rand_mat(rng, n))
        a = mp.generalized_eigen(pencil, rng=np.random.default_rng(100))
        b = mp.generalized_eigen(pencil, rng=np.random.default_rng(200))
        assert a.shift_used != b.shift_used
        assert mp.match_roots(a.finite, b.finite).max_error <= 1e-8


def test_qz_backend_agrees_with_shift_invert():
    rng = np.random.default_rng(5)
    pencil = mp.Pencil(rand_mat(rng, 8), rand_mat(rng, 8))
    si = mp.generalized_eigen(pencil, rng=0)
    qz = mp.generalized_eigen(pencil, backend="qz")
    assert qz.backend != si.backend
    assert si.total == qz.total == 8
    assert mp.match_roots(si.finite, qz.finite).max_error <= 1e-8


def test_singular_pencil_raises():
    zero = np.zeros((3, 3))
    with pytest.raises(SpectrumError):
        mp.generalized_eigen(mp.Pencil(zero, zero), rng=0)


def test_singular_pencil_takes_the_condition_of_five_shifts(monkeypatch):
    from matpencil import eigensolve
    calls = []

    def counting(mat):
        calls.append(mat.shape)
        return mp.pivot_condition(mat)

    monkeypatch.setattr(eigensolve, "pivot_condition", counting)
    zero = np.zeros((4, 4))
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    with pytest.raises(SpectrumError, match="no admissible shift in 5 draws"):
        mp.generalized_eigen(mp.Pencil(zero, zero), rng=rng)
    assert calls == [(4, 4)] * 5  # one candidate at a time
    ref.random(5)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_shift_batch_matches_one_draw_at_a_time():
    # real and complex D, every third with a zero column (a singular D)
    gen = np.random.default_rng(44)
    for i in range(50):
        n = 1 + i % 12
        D = gen.standard_normal((n, n))
        if i % 2:
            D = D + 1j * gen.standard_normal((n, n))
        if i % 3 == 0:
            D[:, gen.integers(n)] = 0
        p = mp.Pencil(D, gen.standard_normal((n, n)))
        rng, ref = np.random.default_rng(i), np.random.default_rng(i)
        rep = mp.generalized_eigen(p, rng=rng)
        finite, n_inf, sigma = shift_invert_reference(p, ref)
        assert rep.shift_used == sigma
        assert rep.finite.tobytes() == finite.tobytes()
        assert rep.infinite_count == n_inf
        assert rng.bit_generator.state == ref.bit_generator.state


def test_colleague_roots_match_cosine_formula():
    for n in range(1, 9):
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        t = mp.chebyshev_triple(mp.MatPoly.chebyshev_poly(coeffs))
        rep = mp.generalized_eigen(t.pencil, rng=7)
        want = np.cos((2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n))
        assert mp.match_roots(rep.finite, want).max_error <= 1e-10


def test_residual_consistency_on_verified_pencils():
    from matpencil import experiments, fixtures
    for rep in experiments.run_family(5, rng=np.random.default_rng(0)):
        for z, res in zip(rep.eigen.finite, rep.eigen.residuals):
            assert res <= 1e-6, f"eigenvalue {z} has residual {res:.3e}"
    mixed = experiments.run_mixed_basis(rng=np.random.default_rng(0))
    for z, res in zip(mixed.eigen.finite, mixed.eigen.residuals):
        assert res <= 1e-6, f"eigenvalue {z} has residual {res:.3e}"


def test_residuals_of_family_level5_expanded():
    from matpencil import experiments, fixtures
    from matpencil._compose import composite_coeffs
    h = np.stack([fixtures.family_constant(0).astype(complex), np.eye(4, dtype=complex)])
    for j in range(1, 5):
        h = composite_coeffs(h, np.eye(4), h, fixtures.family_constant(j))
    p5 = mp.MatPoly.monomial_poly(h)
    eig = experiments.run_family(5, rng=np.random.default_rng(0))[-1].eigen
    assert len(eig.finite) == 124
    assert mp.residuals(p5, eig.finite).max() <= 1e-10


def test_match_roots_is_minimum_weight_not_greedy():
    # greedy takes the closest pair (1, 0.55) first and is left with (0, 1.6)
    rep = mp.match_roots([0.0, 1.0], [0.55, 1.6])
    assert rep.pairs == [(0, 0), (1, 1)]
    assert rep.max_error == pytest.approx(0.6)
    np.testing.assert_allclose(rep.forward_errors, [0.55, 0.6])
    assert rep.unmatched_eigs == [] and rep.unmatched_refs == []


def _same_match(a, b):
    return (a.pairs == b.pairs and np.array_equal(a.forward_errors, b.forward_errors)
            and a.max_error == b.max_error and a.unmatched_eigs == b.unmatched_eigs
            and a.unmatched_refs == b.unmatched_refs)


def test_match_roots_fast_path_equals_the_assignment(monkeypatch):
    import scipy.optimize
    from matpencil import experiments
    seen = []
    monkeypatch.setattr(experiments, "match_roots",
                        lambda e, r: seen.append((e, r)) or mp.match_roots(e, r))
    experiments.run_mixed_basis(rng=np.random.default_rng(0))
    rng = np.random.default_rng(12)
    for _ in range(40):
        m = int(rng.integers(1, 30))
        refs = rng.normal(size=m) + 1j * rng.normal(size=m)
        k = int(rng.integers(0, m + 1))
        eigs = rng.permutation(refs)[:k] + 1e-6 * (rng.normal(size=k) + 1j * rng.normal(size=k))
        seen.append((eigs, refs))
    want = [match_roots_reference(eigs, refs) for eigs, refs in seen]
    # the fast path never calls the assignment on these
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", None)
    for (eigs, refs), ref in zip(seen, want):
        assert _same_match(mp.match_roots(eigs, refs), ref)
    assert len(seen[0][0]) == 21 and len(want[0].pairs) == 21


def test_match_roots_falls_back_when_nearest_references_collide(monkeypatch):
    import scipy.optimize
    cases = [([0.0, 0.1], [0.05, 5.0]),     # both nearest 0.05
             ([1.0, 2.0, 3.0], [1.0, 2.0]),  # more eigenvalues than references
             ([1.0, 1.0], [1.0, 1.5, 9.0]),  # a repeated eigenvalue
             ([1.0], [])]
    want = [match_roots_reference(eigs, refs) for eigs, refs in cases]
    calls = []
    real = scipy.optimize.linear_sum_assignment
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment",
                        lambda dist: calls.append(dist.shape) or real(dist))
    for (eigs, refs), ref in zip(cases, want):
        assert _same_match(mp.match_roots(eigs, refs), ref)
    assert calls == [(2, 2), (3, 2), (2, 3), (1, 0)]
    rep = mp.match_roots([0.0, 0.1], [0.05, 5.0])
    assert rep.pairs == [(0, 0), (1, 1)] and rep.forward_errors.tolist() == [0.05, 4.9]
    calls.clear()
    assert mp.match_roots([], [1.0]).pairs == [] and calls == []


def test_mixed_leaves_scipy_optimize_unloaded():
    # the fast path pairs its 21 roots; the assignment's import is not needed
    code = ("import sys; from matpencil.cli import main; code = main(['mixed']); "
            "print(code, 'scipy.optimize' in sys.modules, file=sys.stderr)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert "max forward error" in out.stdout
    assert out.stderr.strip() == "0 False"


def test_package_import_leaves_scipy_optimize_unloaded():
    # only match_roots needs it, and it adds set-up time and memory to every run
    code = "import sys, matpencil; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_identity_d_is_solved_as_standard_eigenproblem():
    from matpencil import eigensolve, experiments
    for t in experiments.family_triple(5):
        p = t.pencil
        assert p.A.dtype == p.D.dtype == np.float64
        rng = np.random.default_rng(8)
        state = rng.bit_generator.state
        rep = mp.generalized_eigen(p, rng=rng)
        assert rng.bit_generator.state == state  # no shift drawn
        assert rep.backend == eigensolve.BACKEND_STANDARD
        assert rep.infinite_count == 0 and rep.shift_used == 0j and rep.total == p.N
        qz = mp.generalized_eigen(mp.Pencil(p.D.astype(complex), p.A.astype(complex)),
                                  backend="qz")
        assert qz.total == p.N
        assert mp.match_roots(rep.finite, qz.finite).max_error <= 1e-10


def test_real_qz_agrees_with_complex_qz_on_quintic():
    from matpencil import fixtures
    a = mp.MatPoly.monomial_poly(np.stack(fixtures.QUINTIC_A))
    b = mp.MatPoly.monomial_poly(np.stack(fixtures.quintic_b_coeffs()))
    p = mp.composite(mp.frobenius_triple(a), mp.frobenius_triple(b), np.eye(5), np.eye(5)).pencil
    assert p.A.dtype == p.D.dtype == np.float64
    real = mp.generalized_eigen(p, backend="qz")
    cplx = mp.generalized_eigen(mp.Pencil(p.D.astype(complex), p.A.astype(complex)),
                                backend="qz")
    assert (len(real.finite), real.infinite_count) == (len(cplx.finite), cplx.infinite_count)
    assert real.total == 35
    assert mp.match_roots(real.finite, cplx.finite).max_error <= 1e-9


def test_package_import_leaves_scipy_linalg_unloaded():
    # only the QZ backend needs it; it loads on the first QZ solve.  Nor does
    # the import load numpy.polynomial, which only mandelbrot_poly_coeffs uses
    code = ("import sys, numpy as np, matpencil as mp\n"
            "print(any(m in sys.modules for m in ('scipy.linalg', 'numpy.polynomial')))\n"
            "p = mp.Pencil(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))\n"
            "print(sorted(mp.generalized_eigen(p, backend='qz').finite.real.tolist()))\n"
            "print('scipy.linalg' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split("\n")[:3] == ["False", "[2.0, 3.0]", "True"]


def test_residuals_match_per_point_loop():
    from matpencil import eigensolve, fixtures
    rng = np.random.default_rng(14)
    cases = [(mp.MatPoly.monomial_poly(np.stack([rand_mat(rng, 3) for _ in range(4)])),
              rng.uniform(-2, 2, 9) + 1j * rng.uniform(-2, 2, 9)),
             (mp.MatPoly.chebyshev_poly(np.stack([rand_mat(rng, 2) for _ in range(3)])),
              [0.5, -1.0, 2j]),
             (mp.MatPoly.monomial_poly(np.zeros((2, 2, 2))), [1.0, 1j])]
    h = fixtures.family_constant(0).astype(complex)
    cases.append((mp.MatPoly.monomial_poly(np.stack([h, np.eye(4)])),
                  mp.generalized_eigen(mp.Pencil(np.eye(4), -h)).finite))
    for p, eigs in cases:
        want = np.array([eigensolve.sigma_ratio(mp.eval_at(p, z)) for z in eigs])
        got = mp.residuals(p, eigs)
        assert got.shape == want.shape and got.dtype == np.float64
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    assert mp.residuals(cases[0][0], []).shape == (0,)
    assert isinstance(eigensolve.sigma_ratio(np.eye(2)), float)
    assert eigensolve.sigma_ratio(np.zeros((2, 2))) == 0.0


@pytest.mark.parametrize("backend", ["shift-invert", "qz"])
def test_generalized_eigen_rejects_object_pencil(backend):
    with pytest.raises(StructuralError, match="numeric"):
        mp.generalized_eigen(rational_pencil(), rng=0, backend=backend)
