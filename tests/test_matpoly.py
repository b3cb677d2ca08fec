import numpy as np
import pytest

import matpencil as mp
from matpencil import fixtures
from matpencil.errors import StructuralError

from helpers import chebyshev_to_monomial, det_poly, rand_lagrange, rand_mono


def test_eval_monomial_scalar():
    p = mp.MatPoly.monomial_poly([1.0, 1.0])  # z + 1
    assert p.eval(2.0) == pytest.approx(np.array([[3.0]]))


def test_eval_lagrange_at_node_returns_stored_sample():
    a = fixtures.mixed_lagrange_poly()
    got = a.eval(-1.0)
    assert np.array_equal(got, fixtures.MIXED_SAMPLES[0].astype(complex))
    assert got[0].tolist() == [-2, -1, -1]


def test_eval_chebyshev_scalar():
    p = mp.MatPoly.chebyshev_poly([1.0, 0.0, 1.0])  # T_0 + T_2
    # T_2(0.5) = 2*0.25 - 1 = -0.5
    assert p.eval(0.5)[0, 0] == pytest.approx(0.5)


def test_barycentric_eval_matches_samples_at_all_nodes():
    a = fixtures.mixed_lagrange_poly()
    for node, sample in zip(a.basis.nodes, a.data):
        assert np.array_equal(a.eval(node), sample.astype(complex))


def test_barycentric_eval_between_nodes_interpolates():
    # degree-1 scalar data: samples of 2z + 1 at nodes 0, 1
    p = mp.MatPoly.lagrange_poly([0.0, 1.0], mp.barycentric_weights([0.0, 1.0]),
                                 [[[1.0]], [[3.0]]])
    for z in (0.25, -1.5, 2.0 + 1.0j):
        assert p.eval(z)[0, 0] == pytest.approx(2 * z + 1, rel=1e-14)


def test_partial_fraction_identity_for_weights():
    rng = np.random.default_rng(11)
    nodes = fixtures.MIXED_NODES
    weights = fixtures.MIXED_WEIGHTS
    assert np.allclose(weights, mp.barycentric_weights(nodes))
    for _ in range(10):
        z = rng.uniform(-3, 3) + 1j * rng.uniform(0.2, 3)
        # 1/w(z) = sum beta_k / (z - tau_k), w(z) = prod (z - tau_k)
        assert abs(1.0 / np.prod(z - nodes) - np.sum(weights / (z - nodes))) < 1e-12


def exact_det_poly(data):
    """Exact coefficients of det p(z) for integer monomial data, interpolated
    from the int64-cast Frobenius pencil of the same data."""
    pencil = mp.frobenius_triple(mp.MatPoly.monomial_poly(data)).pencil
    return mp.interp_charpoly(mp.Pencil(pencil.D.astype(np.int64), pencil.A.astype(np.int64)))


def test_det_poly_trivial():
    p = mp.MatPoly.monomial_poly([1.0, 1.0])
    np.testing.assert_allclose(det_poly(p).real, [1.0, 1.0], atol=1e-14)


def test_det_poly_mandelbrot_cubic():
    p = mp.MatPoly.monomial_poly([float(c) for c in mp.mandelbrot_poly_coeffs(3)])
    np.testing.assert_allclose(det_poly(p).real, [1, 1, 2, 1], atol=1e-12)
    assert exact_det_poly(np.array([[[1]], [[1]], [[2]], [[1]]])) == [1, 1, 2, 1]


def test_det_poly_matches_pointwise_determinant():
    rng = np.random.default_rng(5)
    p = rand_mono(rng, 2, 2)
    coeffs = det_poly(p)
    val = sum(c * 0.7 ** k for k, c in enumerate(coeffs))
    want = np.linalg.det(p.eval(0.7))
    assert abs(val - want) / abs(want) < 1e-10
    for _ in range(20):
        z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        val = sum(c * z ** k for k, c in enumerate(coeffs))
        want = np.linalg.det(p.eval(z))
        assert abs(val - want) <= 1e-8 * max(1.0, abs(want))


def test_det_poly_exact_random_integer_matrix():
    rng = np.random.default_rng(7)
    data = rng.integers(-4, 5, (3, 2, 2))
    exact = exact_det_poly(data)
    approx = det_poly(mp.MatPoly.monomial_poly(data.astype(float)))
    np.testing.assert_allclose(approx.real, exact, atol=1e-10)


_EVAL_DATA = np.array([[[2, -1], [1, 3]], [[0, 1], [-1, 2]], [[1, 0], [0, 2]]])


def _eval_poly(kind, dtype):
    data = _EVAL_DATA.astype(dtype)
    if kind == "monomial":
        return mp.MatPoly.monomial_poly(data)
    if kind == "chebyshev":
        return mp.MatPoly.chebyshev_poly(data)
    # nodes 0, 1 have the integer weights -1, 1
    return mp.MatPoly.lagrange_poly(np.array([0, 1]).astype(dtype),
                                    np.array([-1, 1]).astype(dtype), data[:2])


@pytest.mark.parametrize("kind", ["monomial", "chebyshev", "lagrange"])
@pytest.mark.parametrize("dtype, want", [(np.int64, np.float64), (np.float64, np.float64),
                                         (np.complex128, np.complex128)])
def test_eval_at_dtype_rule(kind, dtype, want):
    z = np.array([1, -2, 3]).astype(dtype)  # 1 is a Lagrange node
    p = _eval_poly(kind, dtype)
    got = mp.eval_at(p, z)
    assert got.dtype == want and mp.eval_at(p, z[1]).dtype == want
    # the same values as the same data and points carried as complex
    ref = mp.eval_at(_eval_poly(kind, np.complex128), z.astype(complex))
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
    # a complex point, or complex data, makes the result complex
    assert mp.eval_at(p, z + 1j).dtype == np.complex128
    assert mp.eval_at(_eval_poly(kind, np.complex128), z).dtype == np.complex128


def test_chebyshev_agrees_with_converted_monomial():
    rng = np.random.default_rng(3)
    for deg in range(6):
        cheb = rng.uniform(-1, 1, deg + 1)
        mono = chebyshev_to_monomial(cheb)
        pc = mp.MatPoly.chebyshev_poly(cheb)
        pm = mp.MatPoly.monomial_poly(mono)
        for z in rng.uniform(-1, 1, 4):
            assert pc.eval(z)[0, 0] == pytest.approx(pm.eval(z)[0, 0], abs=1e-12)


def test_height_report_examples():
    m3 = mp.mandelbrot_matrix(3).entries
    rep = mp.height_report(m3)
    assert rep.height == 1 and rep.is_bohemian_01 and rep.is_height1_integer

    rep = mp.height_report(np.array([[1.0, 10.0], [10.0, 1.0]]))
    assert rep.height == 10 and rep.t_metric == pytest.approx(0.1)

    rep = mp.height_report(np.eye(3))
    assert rep.height == 1 and rep.t_metric == 1 and not rep.is_bohemian_01

    rep = mp.height_report(np.zeros((2, 2)))
    assert rep.height == 0 and rep.t_metric is None


def test_structural_errors():
    with pytest.raises(StructuralError):
        mp.MatPoly(mp.BasisSpec.monomial(), 2, 1, np.zeros((2, 2, 2, 2)))
    with pytest.raises(StructuralError):
        mp.MatPoly(mp.BasisSpec.monomial(), 2, 2, np.zeros((2, 2, 2)))  # missing a coefficient
    with pytest.raises(StructuralError):
        mp.BasisSpec.lagrange([0.0, 0.0], [1.0, 1.0])  # duplicate nodes
    with pytest.raises(StructuralError):
        mp.MatPoly.lagrange_poly([0.0, 1.0, 2.0], mp.barycentric_weights([0.0, 1.0, 2.0]),
                                 np.zeros((2, 1, 1)))  # node count vs sample count


def test_height_flags_match_entrywise_reference():
    from matpencil import experiments

    def reference(arr):
        flat = np.asarray(arr).ravel()
        return (all(x == 0 or x == -1 for x in flat),
                all(x == 0 or x == -1 or x == 1 for x in flat))

    rng = np.random.default_rng(12)
    mats = [rng.integers(lo, 2, (r, r)) for lo in (-2, -1, 0) for r in (1, 3, 5)]
    mats += [rng.integers(-1, 1, (3, 3)) + 1j * rng.integers(-1, 2, (3, 3)) for _ in range(5)]
    mats += [rng.integers(-1, 2, (4, 4)).astype(complex), np.zeros((0, 0)),
             np.array([[np.nan, 0.0]])]
    mats += [t.pencil.A for t in experiments.family_triple(6)]
    seen = set()
    for m in mats:
        rep = mp.height_report(m)
        got = (rep.is_bohemian_01, rep.is_height1_integer)
        assert got == reference(m)
        seen.add(got)
    assert seen == {(True, True), (False, True), (False, False)}


def _points_with_node(rng, nodes):
    circle = 2.0 * np.exp(2j * np.pi * rng.random(6))
    inside = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
    return np.concatenate([circle, inside, nodes[-1:], [0.5, -1.0]])


@pytest.mark.parametrize("kind", ["monomial", "chebyshev", "lagrange", "lagrange_real"])
@pytest.mark.parametrize("r,s", [(1, 0), (1, 3), (2, 1), (3, 4)])
def test_eval_at_array_equals_stacked_scalar_calls(kind, r, s):
    rng = np.random.default_rng(10 * r + s)
    if kind == "monomial":
        p = rand_mono(rng, r, s)
    elif kind == "chebyshev":
        p = mp.MatPoly.chebyshev_poly(rand_mono(rng, r, s).data)
    elif kind == "lagrange":
        p = rand_lagrange(rng, r, s)
    else:  # real nodes, weights and samples
        nodes = np.linspace(-1.0, 1.0, s + 1) if s else np.array([0.25])
        p = mp.MatPoly.lagrange_poly(nodes, mp.barycentric_weights(nodes).real,
                                     rng.standard_normal((s + 1, r, r)))
    nodes = p.basis.nodes if p.basis.kind == "lagrange" else np.array([0.3, 0.7])
    z = _points_with_node(rng, nodes)
    want = np.stack([mp.eval_at(p, complex(x)) for x in z])
    got = mp.eval_at(p, z)
    assert got.shape == (z.size, r, r)
    # The arithmetic is the same, but numpy may run a contiguous stack through
    # a vectorized (fused multiply-add) loop and one point through a scalar
    # loop, so the two may differ by rounding: a few units of float64 epsilon.
    tol = 16 * (s + 1) * np.finfo(float).eps * np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=0, atol=tol)
    np.testing.assert_array_equal(mp.eval_at(p, z.reshape(2, -1)), got.reshape(2, -1, r, r))
    if p.basis.kind == "lagrange":  # a point equal to a node returns that node's sample
        np.testing.assert_array_equal(got[9], p.data[-1])
