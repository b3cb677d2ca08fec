import numpy as np
import pytest

import matpencil as mp
from matpencil.errors import SpectrumError


def mandelbrot_triple(n):
    m = mp.mandelbrot_matrix(n)
    return mp.StandardTriple(m.triple_X.astype(float),
                             mp.Pencil(np.eye(m.dim), m.entries.astype(float)),
                             m.triple_Y.astype(float), grade=m.dim)


def test_pencil_det_examples():
    m3 = mp.mandelbrot_matrix(3)
    p = mp.Pencil(np.eye(3), m3.entries.astype(float))
    assert mp.pencil_det_at(p, 0.0) == pytest.approx(1.0)  # p_3(0)

    p = mp.Pencil(np.eye(2), np.diag([1.0, 2.0]))
    assert mp.pencil_det_at(p, 1.0) == pytest.approx(0.0, abs=1e-14)

    p = mp.Pencil(np.diag([1.0, 0.0]), np.diag([2.0, 1.0]))
    assert mp.pencil_det_at(p, 5.0) == pytest.approx(-3.0)


def test_pencil_det_exact_integer_path():
    m4 = mp.mandelbrot_matrix(4)
    p = mp.Pencil(np.eye(7, dtype=np.int64), m4.entries)
    val = mp.pencil_det_at(p, 2)
    assert isinstance(val, int)
    assert val == mp.mandelbrot_poly_at(4, 2)


def test_resolvent_examples():
    t = mp.StandardTriple([[1.0]], mp.Pencil([[1.0]], [[-1.0]]), [[1.0]])
    assert mp.resolvent_eval(t, 1.0)[0, 0] == pytest.approx(0.5)

    t3 = mandelbrot_triple(3)
    assert mp.resolvent_eval(t3, 1.0)[0, 0] == pytest.approx(0.2)  # 1 / p_3(1)

    # scalar barycentric toy representing a(z) = z
    toy = mp.MatPoly.lagrange_poly([0.0, 1.0], [-1.0, 1.0], [[[0.0]], [[1.0]]])
    tl = mp.lagrange_triple(toy)
    assert mp.resolvent_eval(tl, 2.0)[0, 0] == pytest.approx(0.5, rel=1e-12)


def test_resolvent_rejects_spectrum_point():
    t = mp.StandardTriple([[1.0]], mp.Pencil([[1.0]], [[-1.0]]), [[1.0]])
    with pytest.raises(SpectrumError):
        mp.resolvent_eval(t, -1.0)


def test_resolvent_weighted_inserts_d_factor():
    # a(z) = 2z: pencil (2, 0) with X = Y = 1 is exact unweighted; the
    # weighted read-out multiplies by D on the right.
    t = mp.StandardTriple([[1.0]], mp.Pencil([[2.0]], [[0.0]]), [[1.0]], weighted=True)
    assert mp.resolvent_eval(t, 1.0)[0, 0] == pytest.approx(1.0)
    t_plain = mp.StandardTriple([[1.0]], mp.Pencil([[2.0]], [[0.0]]), [[1.0]])
    assert mp.resolvent_eval(t_plain, 1.0)[0, 0] == pytest.approx(0.5)


def test_verify_triple_mandelbrot_level4():
    p4 = mp.MatPoly.monomial_poly([float(c) for c in mp.mandelbrot_poly_coeffs(4)])
    rep = mp.verify_triple(mandelbrot_triple(4), p4, tol=1e-8, rng=0)
    assert rep.passed


def test_verify_triple_trivial_linear():
    t = mp.StandardTriple([[1.0]], mp.Pencil([[1.0]], [[-1.0]]), [[1.0]], grade=1)
    p = mp.MatPoly.monomial_poly([1.0, 1.0])
    rep = mp.verify_triple(t, p, rng=1)
    assert rep.passed
    assert rep.det_deviation <= 1e-14 and rep.resolvent_deviation <= 1e-14


def test_verify_triple_catches_corrupted_sign():
    p4 = mp.MatPoly.monomial_poly([float(c) for c in mp.mandelbrot_poly_coeffs(4)])
    t = mandelbrot_triple(4)
    bad = mp.StandardTriple(t.X, t.pencil, -t.Y, grade=t.grade)
    assert not mp.verify_triple(bad, p4, rng=2).passed


def test_resolvent_linear_in_x_and_y():
    rng = np.random.default_rng(9)
    t = mandelbrot_triple(4)
    z = 1.3 + 0.4j
    base = mp.resolvent_eval(t, z)
    for c in (2.0, -0.5 + 1.25j):
        scaled_y = mp.StandardTriple(t.X, t.pencil, c * t.Y.astype(complex))
        got = mp.resolvent_eval(scaled_y, z)
        assert np.linalg.norm(got - c * base) <= 1e-14 * np.linalg.norm(c * base)
        scaled_x = mp.StandardTriple(c * t.X.astype(complex), t.pencil, t.Y)
        got = mp.resolvent_eval(scaled_x, z)
        assert np.linalg.norm(got - c * base) <= 1e-14 * np.linalg.norm(c * base)


def test_constructed_pencils_are_regular():
    rng = np.random.default_rng(4)
    t3 = mandelbrot_triple(3)
    assert mp.is_regular(t3.pencil, rng=rng)
    toy = mp.MatPoly.lagrange_poly([0.0, 1.0], [-1.0, 1.0], [[[0.0]], [[1.0]]])
    assert mp.is_regular(mp.lagrange_triple(toy).pencil, rng=rng)


def test_det_identity_certified_at_enough_points():
    p4 = mp.MatPoly.monomial_poly([float(c) for c in mp.mandelbrot_poly_coeffs(4)])
    eq = mp.det_equality(mandelbrot_triple(4).pencil, p4)
    assert eq.ok and eq.points == max(7, 7) + 1


def test_verify_triple_degenerate_pencil_raises():
    from matpencil.errors import DegenerateInputError
    zero = np.zeros((2, 2))
    t = mp.StandardTriple(np.eye(2), mp.Pencil(zero, zero), np.eye(2), grade=1)
    p = mp.MatPoly.monomial_poly(np.stack([np.eye(2), np.eye(2)]))
    with pytest.raises(DegenerateInputError):
        mp.verify_triple(t, p, n_points=3, rng=0)


def test_verify_triple_rejects_dimension_mismatch():
    from matpencil.errors import StructuralError
    t = mp.StandardTriple([[1.0]], mp.Pencil([[1.0]], [[-1.0]]), [[1.0]], grade=1)
    p = mp.MatPoly.monomial_poly(np.stack([np.eye(2), np.eye(2)]))
    with pytest.raises(StructuralError):
        mp.verify_triple(t, p, rng=0)


def test_block_hessenberg_mask_matches_entrywise_loop():
    def loop(mat, r):
        n = mat.shape[0]
        return all(mat[i, j] == 0 for i in range(n) for j in range(n) if i // r > j // r + 1)

    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 7, 12):
        for r in (1, 2, 3):
            for _ in range(20):
                mat = np.triu(rng.integers(-1, 2, (n, n)), -rng.integers(0, n + 1))
                assert mp.is_block_upper_hessenberg(mat, r) == loop(mat, r)
