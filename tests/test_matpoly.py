import numpy as np
import pytest

import matpencil as mp
from matpencil import fixtures, jsonio
from matpencil.errors import StructuralError
from matpencil.matpoly import NonzeroMatrix

from helpers import (chebyshev_to_monomial, det_poly, height_report_reference, held,
                     in_nonzero_format, rand_lagrange, rand_mono)


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
    for node, sample in zip(a.nodes, a.data):
        assert np.array_equal(a.eval(node), sample.astype(complex))


def test_barycentric_eval_between_nodes_interpolates():
    # degree-1 scalar data: samples of 2z + 1 at nodes 0, 1
    p = mp.MatPoly.lagrange_poly([0.0, 1.0], mp.barycentric_weights([0.0, 1.0]),
                                 [[[1.0]], [[3.0]]])
    for z in (0.25, -1.5, 2.0 + 1.0j):
        assert p.eval(z)[0, 0] == pytest.approx(2 * z + 1, rel=1e-14)


def test_barycentric_weights_follow_the_nodes_dtype():
    # the `_common` rule: real nodes give float64 weights, equal to the
    # weights of the same nodes cast to complex
    nodes = fixtures.MIXED_NODES
    real = mp.barycentric_weights(nodes)
    assert real.dtype == np.float64
    cplx = mp.barycentric_weights(np.asarray(nodes, dtype=complex))
    assert cplx.dtype == np.complex128
    assert np.array_equal(cplx, real)
    assert mp.barycentric_weights([0, 1, 3]).dtype == np.float64


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
    m3 = mp.mandelbrot_matrix(3).entries.toarray()
    rep = mp.height_report(m3)
    assert rep.height == 1 and rep.is_bohemian_01 and rep.is_height1_integer

    rep = mp.height_report(np.array([[1.0, 10.0], [10.0, 1.0]]))
    assert rep.height == 10 and rep.t_metric == pytest.approx(0.1)

    rep = mp.height_report(np.eye(3))
    assert rep.height == 1 and rep.t_metric == 1 and not rep.is_bohemian_01

    rep = mp.height_report(np.zeros((2, 2)))
    assert rep.height == 0 and rep.t_metric is None


def test_height_report_matches_the_full_copy_reference():
    from fractions import Fraction

    from matpencil import experiments

    rng = np.random.default_rng(5)
    mats = [rng.standard_normal((4, 6)), rng.integers(-3, 4, (5, 5)),
            rng.integers(-1, 2, (6, 6)).astype(np.int8), rng.integers(-1, 1, (3, 3)),
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
            rng.integers(-1, 2, (4, 4)) + 1j * rng.integers(-1, 2, (4, 4)),
            np.zeros((3, 3)), np.zeros((2, 2), dtype=complex), np.zeros((0, 0)),
            np.zeros((0, 3), dtype=np.int64), np.array([[np.nan, 0.0], [2.0, -1.0]]),
            np.array([[np.inf, 0.5]]), np.eye(3, dtype=bool),
            np.array([[Fraction(1, 2), 0], [-1, 2]], dtype=object)]
    # where reading real floats from their signed extremes can go wrong
    mats += [np.full((2, 3), -0.0), -1.0 - rng.random((3, 3)), np.array([[np.inf]]),
             np.array([[-np.inf, 0.0]]), np.array([[np.nan, 2.0], [-1.0, 0.5]]),
             np.array([[2.0, -1.0], [0.5, np.nan]]), np.array([[np.nan, 0.0]]),
             np.array([[complex('inf'), 0]]),
             rng.standard_normal((4, 4)).astype(np.float32),
             np.array([[-3, 0.25], [0, 1e-30]], dtype=np.float32),
             np.array([[1.0, 0.0], [1e-4000, -2.0]], dtype=np.longdouble)]
    mats += [NonzeroMatrix.from_dense(m) for m in mats]
    mats += [t.pencil.A for t in experiments.family_triple(6)]  # held as their nonzeros
    for m in mats:
        with np.errstate(invalid="ignore"):  # the reference warns at inf / inf
            want = height_report_reference(m)
        got = mp.height_report(m)
        assert repr(got) == repr(want)
        assert type(got.height) is float and type(got.is_bohemian_01) is bool
        assert type(got.is_height1_integer) is bool
        assert got.t_metric is None or type(got.t_metric) is float


def test_height_report_keeps_one_magnitude_array():
    import tracemalloc
    n = 400
    m = np.random.default_rng(0).standard_normal((n, n))
    tracemalloc.start()
    try:
        mp.height_report(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * n * n  # float magnitudes (8 bytes an entry) and one mask (1)


def test_height_report_of_real_floats_holds_masks_only():
    import tracemalloc
    n = 400
    m = np.random.default_rng(0).standard_normal((n, n))
    tracemalloc.start()
    try:
        mp.height_report(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * n  # comparison masks (1 byte an entry), no float copy


def test_structural_errors():
    with pytest.raises(StructuralError):
        mp.MatPoly("monomial", np.zeros((2, 2, 2, 2)))
    with pytest.raises(StructuralError):  # missing a coefficient
        jsonio.matpoly_from_json({"basis": "monomial", "dim": 2, "grade": 2,
                                  "data": [[[0, 0], [0, 0]]] * 2})
    with pytest.raises(StructuralError):
        mp.MatPoly.lagrange_poly([0.0, 0.0], [1.0, 1.0], np.zeros((2, 1, 1)))  # duplicate nodes
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
    mats += [NonzeroMatrix.from_dense(m) for m in mats]
    mats += [t.pencil.A for t in experiments.family_triple(6)]  # held as their nonzeros
    mats += [mp.mandelbrot_matrix(n).entries for n in (2, 5)]
    mats += [mp.inverse_structure(n).inverse for n in (2, 5)]
    seen = set()
    for m in mats:
        rep = mp.height_report(m)
        got = (rep.is_bohemian_01, rep.is_height1_integer)
        assert got == reference(m)
        seen.add((isinstance(m, NonzeroMatrix), *got))
    assert seen == {(held, *flags) for held in (False, True)
                    for flags in ((True, True), (False, True), (False, False))}


def test_height_report_of_held_nonzeros_equals_that_of_the_dense_array():
    from matpencil import experiments
    held = [t.pencil.A for t in experiments.family_triple(6)]
    held += [mp.mandelbrot_matrix(n).entries for n in range(2, 9)]
    held += [NonzeroMatrix((2, 3), np.array([0, 4]), np.array([np.nan, -0.5])),
             NonzeroMatrix((2, 2), np.arange(4), np.array([1.0, -1.0, 0.25, 2.0])),
             NonzeroMatrix((2, 2), np.array([1, 2]), np.array([0.0, -1.0])),  # a stored 0
             NonzeroMatrix((2, 2), np.array([1]), np.array([0], np.int8)),  # a stored 0 alone
             NonzeroMatrix((0, 0), np.zeros(0, np.int64), np.zeros(0))]
    for m in held:
        assert isinstance(m, NonzeroMatrix)
        with np.errstate(invalid="ignore"):
            want = mp.height_report(m.toarray())
        assert repr(mp.height_report(m)) == repr(want)


def test_common_casts_a_held_matrix_without_making_it_dense(monkeypatch):
    from matpencil.matpoly import _common
    monkeypatch.setattr(NonzeroMatrix, "toarray", lambda self: pytest.fail("made dense"))
    held = NonzeroMatrix((2, 2), np.array([0, 3]), np.array([1, -2], np.int8))
    for other, want in ((np.eye(2), np.float64), (np.eye(2, dtype=complex), np.complex128),
                        (np.eye(2, dtype=np.int8), np.float64)):
        got, dense = _common(held, other)
        assert isinstance(got, NonzeroMatrix) and got.dtype == dense.dtype == want
        assert got.keys is held.keys and got.values.tolist() == [1, -2]
    same = NonzeroMatrix((2, 2), np.array([1]), np.array([0.5]))
    assert _common(same)[0] is same  # already in the common dtype: no copy


def test_nonzero_matrix_holds_float_values():
    dense = np.array([[0.0, -2.5, 0.0], [-0.0, 0.0, 1e-300], [np.nan, 0.0, 4.0]])
    m = NonzeroMatrix.from_dense(dense)
    assert m.keys.tolist() == [1, 5, 6, 8]  # -0.0 is a zero and is not stored
    assert m.dtype == np.float64 and m.size == 9 and m.shape == (3, 3)
    assert m.nbytes == 16 * 4
    assert np.array_equal(m.toarray(), dense + 0.0, equal_nan=True)
    assert np.asarray(m).tobytes() == (dense + 0.0).tobytes()
    assert m[0, 1] == -2.5 and m[1, 0] == 0 and type(m[1, 0]) is np.float64
    c = m.astype(complex)
    assert c.dtype == np.complex128 and c.keys is m.keys
    assert np.array_equal(c.toarray(), dense.astype(complex), equal_nan=True)
    assert m.astype(float, copy=False) is m and m.astype(float) is not m
    for arr in (c.keys, c.values):
        assert not arr.flags.writeable
    finite = NonzeroMatrix.from_dense(np.nan_to_num(dense))
    assert (finite.min(), finite.max()) == (-2.5, 4.0)


def test_summed_equals_a_dictionary_sum():
    # a sorted list followed by a short sorted list, with shared keys,
    # cancellations and empty sides: the shape of each Mandelbrot level's pieces
    rng = np.random.default_rng(3)
    for size, extra in [(0, 0), (0, 4), (5, 0), (1, 1), (40, 12), (200, 30)]:
        for _ in range(20):
            keys = np.concatenate([np.sort(rng.choice(300, size, replace=False)),
                                   np.sort(rng.choice(300, extra, replace=False))]).astype(np.int64)
            vals = rng.choice(np.array([-1, 1], np.int8), size + extra)
            want = {}
            for k, v in zip(keys.tolist(), vals.tolist()):
                want[k] = want.get(k, 0) + v
            want = sorted((k, v) for k, v in want.items() if v)
            before = keys.copy(), vals.copy()
            got = NonzeroMatrix.summed((15, 20), keys, vals)
            assert got.shape == (15, 20) and got.values.dtype == np.int8
            assert list(zip(got.keys.tolist(), got.values.tolist())) == want
            assert all(map(np.array_equal, (keys, vals), before))  # the inputs are unchanged


def test_entries_read_held_and_dense_alike():
    from matpencil.matpoly import _entries
    dense = np.array([[0.0, -2.5, 0.0], [-0.0, 0.0, 1e-300], [np.nan, 0.0, 4.0]])
    for m in (dense, NonzeroMatrix.from_dense(dense)):
        rows, cols, vals = _entries(m)
        assert rows.tolist() == [0, 1, 2, 2] and cols.tolist() == [1, 2, 0, 2]
        assert vals.tobytes() == np.array([-2.5, 1e-300, np.nan, 4.0]).tobytes()
    rows, cols, vals = _entries(NonzeroMatrix((0, 0), np.zeros(0, np.int64), np.zeros(0)))
    assert rows.size == cols.size == vals.size == 0


def test_every_held_matrix_the_package_makes_is_in_the_nonzero_format():
    from matpencil import experiments
    made = [m for t in experiments.family_triple(6) for m in (t.pencil.D, t.pencil.A)]
    for n in range(2, 11):
        made += [mp.mandelbrot_matrix(n).entries, mp.inverse_structure(n).inverse]
    rng = np.random.default_rng(17)
    ta = held(mp.frobenius_triple(rand_mono(rng, 2, 3)))
    tb = held(mp.chebyshev_triple(mp.MatPoly.chebyshev_poly(rand_mono(rng, 2, 2).data)))
    d0, c0 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    for t in (mp.scalar_shift_left(ta, d0, c0), mp.scalar_shift_right(ta, d0, c0),
              mp.product(ta, tb, "F1"), mp.product(ta, tb, "F2"),
              mp.composite(ta, tb, d0, c0), mp.composite(ta, tb, np.zeros((2, 2)), c0)):
        made += [t.pencil.D, t.pencil.A]
    bad = [i for i, m in enumerate(made) if not in_nonzero_format(m)]
    assert bad == []
    # the check sees each fault
    for keys, vals in (([1, 0], [1, 1]), ([0, 0], [1, 1]), ([0, 4], [1, 1]),
                       ([-1, 2], [1, 1]), ([0, 2], [1, 0])):
        assert not in_nonzero_format(NonzeroMatrix((2, 2), np.array(keys), np.array(vals)))


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
        p = mp.MatPoly.lagrange_poly(nodes, mp.barycentric_weights(nodes),
                                     rng.standard_normal((s + 1, r, r)))
    nodes = p.nodes if p.kind == "lagrange" else np.array([0.3, 0.7])
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
    if p.kind == "lagrange":  # a point equal to a node returns that node's sample
        np.testing.assert_array_equal(got[9], p.data[-1])
