import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matpencil as mp
from matpencil import fixtures
from matpencil.errors import ContractError, StructuralError, VerificationError

from helpers import (composite_coeffs, controllability_matrix, det_poly, rand_mono,
                     rational_pencil)


def test_interp_charpoly_exact_mandelbrot():
    m3 = mp.mandelbrot_matrix(3)
    coeffs = mp.interp_charpoly(mp.Pencil(np.eye(3, dtype=np.int64), m3.entries.toarray()))
    assert coeffs == [1, 1, 2, 1]


def test_interp_charpoly_zero_matrix():
    coeffs = mp.interp_charpoly(mp.Pencil(np.eye(2, dtype=np.int64),
                                          np.zeros((2, 2), dtype=np.int64)))
    assert coeffs == [0, 0, 1]


def test_interp_charpoly_exact_matches_recurrence_bitwise():
    # det(zI - M_n) = p_n coefficient by coefficient, by two exact routes:
    # Hyman's method at 0..N and `forward_interp`, and the squaring recurrence
    for n in range(2, 11):
        m = mp.mandelbrot_matrix(n)
        pencil = mp.Pencil(np.eye(m.dim, dtype=np.int64), m.entries.toarray())
        assert mp.interp_charpoly(pencil) == mp.mandelbrot_poly_coeffs(n)


def test_interp_charpoly_lays_the_pencil_out_once(monkeypatch):
    # one Hyman layout for all 64 points (one per point before)
    from matpencil import _exact
    calls = []
    real = _exact.unit_hessenberg
    monkeypatch.setattr(_exact, "unit_hessenberg", lambda *a: calls.append(1) or real(*a))
    m = mp.mandelbrot_matrix(7)
    pencil = mp.Pencil(np.eye(m.dim, dtype=np.int64), m.entries.toarray())
    assert mp.interp_charpoly(pencil) == mp.mandelbrot_poly_coeffs(7)
    assert len(calls) == 1


def test_interp_charpoly_of_an_integer_pencil_builds_no_fraction(monkeypatch):
    # the values, differences and coefficients stay Python ints
    from fractions import Fraction
    from matpencil import _exact
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(_exact, "Fraction", CountingFraction)
    m = mp.mandelbrot_matrix(8)
    pencil = mp.Pencil(np.eye(m.dim, dtype=np.int64), m.entries.toarray())
    assert mp.interp_charpoly(pencil) == mp.mandelbrot_poly_coeffs(8)
    assert built == []


_COEFFS = st.one_of(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9),
    st.lists(st.fractions(-100, 100, max_denominator=12), min_size=1, max_size=9))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(coeffs=_COEFFS, padding=st.integers(0, 3))
def test_forward_interp_recovers_the_polynomial_from_its_values_at_0_to_n(coeffs, padding):
    # padding adds zero leading coefficients; a list of length 1 is a constant
    from matpencil._exact import forward_interp
    coeffs = coeffs + [0] * padding
    ys = [sum(c * k ** i for i, c in enumerate(coeffs)) for k in range(len(coeffs))]
    got = forward_interp(ys)
    assert got == coeffs
    if all(type(c) is int for c in coeffs):
        assert all(type(c) is int for c in got)


def test_interp_charpoly_rejects_non_integer_coefficients_of_an_integer_pencil(monkeypatch):
    # values at 0, 1, 2 that no integer polynomial takes: z (z + 1) / 2
    from matpencil import oracle
    monkeypatch.setattr(oracle, "pencil_dets", lambda D, A, xs: [0, 1, 3])
    with pytest.raises(VerificationError, match="non-integer"):
        mp.interp_charpoly(mp.Pencil(np.eye(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)))


def test_interp_charpoly_float_vs_expanded_family_step():
    c0, c1 = fixtures.family_constant(0), fixtures.family_constant(1)
    h1 = np.stack([c0.astype(complex), np.eye(4, dtype=complex)])
    t1 = mp.frobenius_triple(mp.MatPoly.monomial_poly(h1))
    t2 = mp.composite(t1, t1, np.eye(4), c1)
    got = mp.interp_charpoly(t2.pencil)
    h2 = mp.MatPoly.monomial_poly(composite_coeffs(h1, np.eye(4), h1, c1))
    want = det_poly(h2)
    scale = float(np.abs(want).max())
    assert got.shape[0] == 13  # degree 12 pencil
    np.testing.assert_allclose(got, want, atol=1e-8 * scale)


def test_det_equality_examples():
    m4 = mp.mandelbrot_matrix(4)
    pencil = mp.Pencil(np.eye(7), m4.entries.toarray().astype(float))
    p4 = mp.MatPoly.monomial_poly([float(c) for c in mp.mandelbrot_poly_coeffs(4)])
    p2 = mp.MatPoly.monomial_poly([1.0, 1.0])
    assert mp.det_equality(pencil, p4).ok
    assert not mp.det_equality(pencil, p2).ok


def test_scalar_roots_examples():
    np.testing.assert_allclose(mp.scalar_roots([1.0, 1.0]), [-1.0])
    roots = sorted(mp.scalar_roots([1.0, 0.0, 1.0]), key=lambda z: z.imag)
    np.testing.assert_allclose(roots, [-1j, 1j], atol=1e-12)

    p4 = [float(c) for c in mp.mandelbrot_poly_coeffs(4)]
    roots = mp.scalar_roots(p4)
    assert len(roots) == 7
    assert max(abs(mp.mandelbrot_poly_at(4, z)) for z in roots) <= 1e-8


def test_scalar_roots_trims_spurious_leading_noise():
    roots = mp.scalar_roots([2.0, 3.0, 1.0, 1e-14, -1e-15])
    assert len(roots) == 2
    np.testing.assert_allclose(sorted(roots, key=lambda z: z.real), [-2, -1], atol=1e-10)


def test_scalar_roots_rejects_zero_polynomial():
    with pytest.raises(ContractError):
        mp.scalar_roots([0.0, 0.0])
    with pytest.raises(ContractError):
        mp.scalar_roots([3.0])


def test_controllability_examples():
    t = mp.frobenius_triple(mp.MatPoly.monomial_poly([1.0, 0.0, 1.0]))
    rep = controllability_matrix(t)
    assert rep.V.shape == (2, 2) and rep.nonsingular

    t1 = mp.frobenius_triple(mp.MatPoly.monomial_poly([1.0, 1.0]))
    rep = controllability_matrix(t1)
    assert rep.V.tolist() == [[1.0]] and rep.nonsingular

    hollow = mp.StandardTriple(t.X, t.pencil, np.zeros((2, 1)), grade=2)
    assert not controllability_matrix(hollow).nonsingular


def test_controllability_of_random_companions():
    rng = np.random.default_rng(12)
    for _ in range(50):
        r = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        p = rand_mono(rng, r, s, monic=bool(rng.integers(2)))
        rep = controllability_matrix(mp.frobenius_triple(p))
        assert rep.cond_estimate < 1e12


def test_oracle_roots_agree_with_eigensolver():
    rng = np.random.default_rng(13)
    p = rand_mono(rng, 3, 3)
    t = mp.frobenius_triple(p)
    eig = mp.generalized_eigen(t.pencil, rng=rng)
    refs = mp.scalar_roots(mp.interp_charpoly(t.pencil))
    assert mp.match_roots(eig.finite, refs).max_error <= 1e-6


def test_stacked_determinant_checks_match_per_point_loops():
    def rel_dev(dp, dq):
        return abs(dp - dq) / max(1.0, abs(dq))

    rng = np.random.default_rng(15)
    for r, s in ((1, 4), (2, 3), (3, 2)):
        p = rand_mono(rng, r, s)
        t = mp.frobenius_triple(p)
        bad = mp.Pencil(t.pencil.D, t.pencil.A + 1e-3)
        n = max(t.N, r * s) + 1
        pts = 2.0 * np.exp(2j * np.pi * (np.arange(n) + 0.28571) / n)
        for pencil in (t.pencil, bad):
            want = max(rel_dev(np.linalg.det(pencil.at(z)), np.linalg.det(mp.eval_at(p, z)))
                       for z in pts)
            got = mp.det_equality(pencil, p)
            assert got.points == n
            assert got.max_deviation == pytest.approx(want, rel=1e-6, abs=1e-13)
        # the same interpolation from one point at a time
        roots = np.exp(-2j * np.pi * np.arange(r * s + 1) / (r * s + 1))
        want = np.fft.ifft([np.linalg.det(mp.eval_at(p, z)) for z in roots])
        np.testing.assert_allclose(det_poly(p), want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())
        want = np.fft.ifft([np.linalg.det(t.pencil.at(z))
                            for z in np.exp(-2j * np.pi * np.arange(t.N + 1) / (t.N + 1))])
        np.testing.assert_allclose(mp.interp_charpoly(t.pencil), want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())


def test_det_equality_fails_on_nan_pencil():
    # one maximum over the stack propagates a NaN deviation; it must not read 0
    p = mp.MatPoly.monomial_poly([1.0, 1.0])
    with np.errstate(invalid="ignore"):
        eq = mp.det_equality(mp.Pencil([[1.0]], [[np.nan]]), p)
    assert not eq.ok and np.isnan(eq.max_deviation)


def test_det_equality_rejects_object_pencil():
    p = mp.MatPoly.monomial_poly(np.stack([np.eye(2), np.eye(2)]))
    with pytest.raises(StructuralError, match="numeric"):
        mp.det_equality(rational_pencil(), p)
    # the exact routines still take object pencils
    obj = mp.Pencil(np.array([[1, 0], [0, 1]], dtype=object),
                    np.array([[1, 1], [0, 2]], dtype=object))
    assert mp.interp_charpoly(obj) == [2, -3, 1]  # (z - 1) (z - 2)


def test_interp_charpoly_rational_pencil_gives_exact_fractions():
    from fractions import Fraction
    coeffs = mp.interp_charpoly(rational_pencil())  # (z - 1/2) (z/2 - 2)
    assert coeffs == [1, Fraction(-9, 4), Fraction(1, 2)]
    assert all(isinstance(c, Fraction) for c in coeffs)
    # an integer-dtype pencil keeps Python int coefficients
    m3 = mp.mandelbrot_matrix(3)
    ints = mp.interp_charpoly(mp.Pencil(np.eye(3, dtype=np.int64), m3.entries.toarray()))
    assert ints == mp.mandelbrot_poly_coeffs(3)
    assert all(type(c) is int for c in ints)
