import numpy as np
import pytest

import matpencil as mp
from matpencil.errors import ContractError, SpectrumError, StructuralError

from helpers import matrix_det, rational_pencil


def mandelbrot_triple(n):
    m = mp.mandelbrot_matrix(n)
    return mp.StandardTriple(m.triple_X.astype(float),
                             mp.Pencil(np.eye(m.dim), m.entries.toarray().astype(float)),
                             m.triple_Y.astype(float), grade=m.dim)


def test_pencil_det_examples():
    m3 = mp.mandelbrot_matrix(3)
    p = mp.Pencil(np.eye(3), m3.entries.toarray().astype(float))
    assert mp.pencil_det_at(p, 0.0) == pytest.approx(1.0)  # p_3(0)

    p = mp.Pencil(np.eye(2), np.diag([1.0, 2.0]))
    assert mp.pencil_det_at(p, 1.0) == pytest.approx(0.0, abs=1e-14)

    p = mp.Pencil(np.diag([1.0, 0.0]), np.diag([2.0, 1.0]))
    assert mp.pencil_det_at(p, 5.0) == pytest.approx(-3.0)


def test_pencil_det_exact_integer_path():
    m4 = mp.mandelbrot_matrix(4)
    p = mp.Pencil(np.eye(7, dtype=np.int64), m4.entries.toarray())
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


def _sequential_verify(t, p, n_points, tol, rng):
    """verify_triple as one draw and one small matrix per point: the reference
    the stacked version must reproduce."""
    from matpencil.errors import DegenerateInputError
    cond_cap = 1.0 / tol
    points = []
    attempts = 0
    while len(points) < n_points:
        attempts += 1
        if attempts > 100 * n_points:
            raise DegenerateInputError("no admissible points")
        z = 2.0 * np.exp(2j * np.pi * rng.random())
        if mp.pivot_condition(t.pencil.at(z)) <= cond_cap:
            points.append(z)
    det_dev, res_dev = 0.0, None
    for z in points:
        az = mp.eval_at(p, z)
        dp, dq = np.linalg.det(t.pencil.at(z)), np.linalg.det(az)
        det_dev = max(det_dev, abs(dp - dq) / max(1.0, abs(dq)))
        if mp.pivot_condition(az) <= cond_cap:
            inv = np.linalg.inv(az)
            got = mp.resolvent_eval(t, z)
            dev = np.linalg.norm(got - inv) / np.linalg.norm(inv)
            res_dev = dev if res_dev is None else max(res_dev, dev)
    return points, attempts, det_dev, res_dev


@pytest.mark.parametrize("tol", [1e-8, 0.1, 1 / 6], ids=["cap_1e8", "cap_10", "cap_6"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_triple_matches_sequential_reference(seed, tol):
    # a(z) = z^2 + 1e-3 z - 4: kappa_1(zD - A) runs from 4.5 to about 2e4 on
    # |z| = 2, so caps 10 and 6 reject about a third and a half of the draws
    p = mp.MatPoly.monomial_poly([-4.0, 1e-3, 1.0])
    t = mp.frobenius_triple(p)
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    points, attempts, det_dev, res_dev = _sequential_verify(t, p, 10, tol, ref_rng)
    rep = mp.verify_triple(t, p, n_points=10, tol=tol, rng=rng)
    assert rep.points == points
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if tol > 1e-8:
        assert attempts > len(points)  # some draws were rejected
    assert rep.det_deviation == pytest.approx(det_dev, rel=1e-6, abs=1e-15)
    assert rep.resolvent_deviation == pytest.approx(res_dev, rel=1e-6, abs=1e-15)


def test_verify_triple_stacked_deviations_match_sequential_reference():
    from helpers import rand_mono
    rng = np.random.default_rng(21)
    for r, s in ((1, 3), (2, 2), (3, 2)):
        a, b = rand_mono(rng, r, s), rand_mono(rng, r, 1)
        t = mp.product(mp.frobenius_triple(a), mp.frobenius_triple(b), "F2")
        p = mp.CallablePoly(r, s + 1, lambda z, a=a, b=b: mp.eval_at(a, z) @ mp.eval_at(b, z))
        ref_rng, rng_t = np.random.default_rng(r), np.random.default_rng(r)
        points, _, det_dev, res_dev = _sequential_verify(t, p, 7, 1e-8, ref_rng)
        rep = mp.verify_triple(t, p, n_points=7, tol=1e-8, rng=rng_t)
        assert rep.points == points and rep.passed
        # both deviations sit at rounding level, where a stack and one point
        # at a time may differ in the last bits
        assert rep.det_deviation == pytest.approx(det_dev, rel=0.5, abs=1e-14)
        assert rep.resolvent_deviation == pytest.approx(res_dev, rel=0.5, abs=1e-14)


@pytest.mark.parametrize("n_points", [1, 3, 7])
def test_verify_triple_degenerate_after_exactly_100n_draws(n_points):
    from matpencil.errors import DegenerateInputError
    zero = np.zeros((2, 2))
    t = mp.StandardTriple(np.eye(2), mp.Pencil(zero, zero), np.eye(2), grade=1)
    p = mp.MatPoly.monomial_poly(np.stack([np.eye(2), np.eye(2)]))
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(DegenerateInputError, match=f"in {100 * n_points} draws"):
        mp.verify_triple(t, p, n_points=n_points, rng=rng)
    for _ in range(100 * n_points):
        ref.random()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_pivot_condition_is_one_norm_condition_number():
    from matpencil.pencil import COND_CAP
    assert mp.pivot_condition(np.array([[1.0, 1e13], [0.0, 1.0]])) > COND_CAP  # pivot ratio 1
    assert mp.pivot_condition(np.array([[1.0, 2.0], [2.0, 4.0]])) == np.inf
    assert mp.pivot_condition(np.zeros((3, 3))) == np.inf
    assert mp.pivot_condition(np.array([[np.nan, 1.0], [0.0, 1.0]])) == np.inf
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    want = np.abs(m).sum(axis=0).max() * np.abs(np.linalg.inv(m)).sum(axis=0).max()
    assert mp.pivot_condition(m) == pytest.approx(want, rel=1e-12)
    stack = np.stack([np.eye(2), np.diag([1.0, 1e-3]), [[1.0, 1e13], [0.0, 1.0]],
                      np.zeros((2, 2))])
    got = mp.pivot_condition(stack)
    assert got.shape == (4,)
    np.testing.assert_array_equal(got, [mp.pivot_condition(x) for x in stack])
    assert got[0] == 1.0 and got[1] == pytest.approx(1e3) and got[3] == np.inf


def test_cond_and_inverse_equal_pivot_condition_and_inv_bitwise():
    from matpencil.pencil import _cond_and_inverse
    rng = np.random.default_rng(8)
    real = rng.standard_normal((6, 3, 3))
    edge = np.stack([np.eye(2), np.diag([1.0, 1e-3]), [[1.0, 1e13], [0.0, 1.0]],
                     [[np.nan, 1.0], [0.0, 1.0]], [[np.inf, 1.0], [0.0, 1.0]],
                     [[1e300, 1e300], [1e-300, 1.0]]])
    for stack in (real, real + 1j * rng.standard_normal((6, 3, 3)), edge):
        cond, inv = _cond_and_inverse(stack)
        with np.errstate(all="ignore"):
            want = np.linalg.cond(stack, 1)
            assert inv.tobytes() == np.linalg.inv(stack).tobytes()
        want[np.isnan(want)] = np.inf  # NaN entries read as inf, above every cap
        assert cond.dtype == np.float64 and cond.tobytes() == want.tobytes()
    # a singular matrix makes the inversion raise: the condition numbers come
    # from np.linalg.cond, and there is no inverse to reuse
    singular = np.stack([np.eye(2), np.ones((2, 2))])
    cond, inv = _cond_and_inverse(singular)
    assert inv is None and cond.tolist() == [1.0, np.inf]
    cond, inv = _cond_and_inverse(np.zeros((3, 0, 0)))
    assert inv is None and cond.tolist() == [1.0] * 3


def test_verify_triple_inverts_each_a_of_z_once(monkeypatch):
    from matpencil import pencil
    from helpers import rand_mono
    p = rand_mono(np.random.default_rng(4), 2, 2)
    t = mp.frobenius_triple(p)
    want = mp.verify_triple(t, p, n_points=5, rng=0)
    inverted, conditioned = [], []
    real_inv, real_cond = np.linalg.inv, pencil.pivot_condition
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a.shape) or real_inv(a))
    monkeypatch.setattr(pencil, "pivot_condition",
                        lambda m: conditioned.append(m.shape) or real_cond(m))
    got = mp.verify_triple(t, p, n_points=5, rng=0)
    assert got == want and got.passed
    # one stacked inversion of a(z), r = 2; the (5, 4, 4) ones condition the draws
    assert [shape for shape in inverted if shape[-2:] == (2, 2)] == [(5, 2, 2)]
    assert conditioned and all(shape[-2:] == (4, 4) for shape in conditioned)  # draws only


@pytest.mark.parametrize("kwargs", [{"n_points": 0}, {"n_points": -3}, {"tol": 0.0},
                                    {"tol": -1.0}, {"tol": np.nan}, {"tol": np.inf}],
                         ids=["points_zero", "points_negative", "tol_zero", "tol_negative",
                              "tol_nan", "tol_inf"])
def test_sampling_arguments_are_checked(kwargs):
    t = mandelbrot_triple(3)
    p3 = mp.MatPoly.monomial_poly([float(c) for c in mp.mandelbrot_poly_coeffs(3)])
    assert mp.verify_triple(t, p3, rng=0).passed and mp.det_equality(t.pencil, p3).ok
    with pytest.raises(ContractError):
        mp.verify_triple(t, p3, rng=0, **kwargs)
    with pytest.raises(ContractError):
        mp.det_equality(t.pencil, p3, **kwargs)


@pytest.mark.parametrize("pencil_dtype, z, want",
                         [(np.int64, 2, np.float64), (np.float64, 0.5, np.float64),
                          (np.float64, [0.5, -1.0], np.float64),
                          (np.float64, 1 + 2j, np.complex128),
                          (np.complex128, 0.5, np.complex128)])
def test_pencil_at_and_resolvent_follow_the_dtype_rule(pencil_dtype, z, want):
    t = mandelbrot_triple(3)
    p = mp.Pencil(t.pencil.D.astype(pencil_dtype), t.pencil.A.astype(pencil_dtype))
    got = p.at(z)
    assert got.dtype == want
    np.testing.assert_array_equal(got, t.pencil.at(np.asarray(z, dtype=complex)))
    res = mp.resolvent_eval(mp.StandardTriple(t.X, p, t.Y), z)
    assert res.dtype == want
    np.testing.assert_allclose(res, mp.resolvent_eval(t, np.asarray(z, dtype=complex)),
                               rtol=1e-14)


def test_rational_pencil_det_at_exact_and_inexact_points():
    from fractions import Fraction
    p = rational_pencil()  # det(zD - A) = (z - 1/2) (z/2 - 2)
    assert mp.pencil_det_at(p, Fraction(1, 3)) == Fraction(-1, 6) * Fraction(-11, 6)
    for z in (0.25, 1.5 - 0.5j):
        assert mp.pencil_det_at(p, z) == pytest.approx((z - 0.5) * (z / 2 - 2), rel=1e-14)


def _leibniz_det(rows):
    # permutation expansion: the test's own exact determinant
    from itertools import permutations
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = sign
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _random_rational_rows(rng, n):
    from fractions import Fraction
    rows = [[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 7))) if rng.random() < 0.7
             else Fraction(0) for _ in range(n)] for _ in range(n)]
    rows[n - 1][0] = Fraction(int(rng.choice([-3, -1, 1, 2])), int(rng.integers(2, 5)))
    return rows  # never upper Hessenberg: entry (n-1, 0) is nonzero


def test_bareiss_det_of_rational_matrices_is_exact():
    from fractions import Fraction
    from matpencil._exact import bareiss_det
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert bareiss_det([[half, 1, 0], [0, third, 1], [1, 0, 1]]) == Fraction(7, 6)
    rng = np.random.default_rng(8)
    for _ in range(60):
        rows = _random_rational_rows(rng, int(rng.integers(3, 6)))
        assert rows[-1][0] != 0  # below the subdiagonal: pencil_dets takes Bareiss
        want = _leibniz_det(rows)
        assert bareiss_det(rows) == want
        assert matrix_det(rows) == want


def test_rational_pencil_det_at_off_hessenberg_pencil():
    from fractions import Fraction
    rows = _random_rational_rows(np.random.default_rng(9), 4)
    p = mp.Pencil(np.eye(4, dtype=int).astype(object), np.array(rows, dtype=object))
    z = Fraction(-2, 3)
    want = _leibniz_det([[z * (i == j) - rows[i][j] for j in range(4)] for i in range(4)])
    assert want != 0
    assert mp.pencil_det_at(p, z) == want


def test_resolvent_eval_rejects_object_pencil():
    t = mp.StandardTriple(np.eye(2), rational_pencil(), np.eye(2))
    with pytest.raises(StructuralError, match="numeric"):
        mp.resolvent_eval(t, 1.0)


def test_verify_triple_rejects_object_pencil():
    t = mp.StandardTriple(np.eye(2), rational_pencil(), np.eye(2))
    p = mp.MatPoly.monomial_poly(np.stack([np.eye(2), np.eye(2)]))
    with pytest.raises(StructuralError, match="numeric"):
        mp.verify_triple(t, p, rng=0)


def _traced(fn):
    """(fn(), tracemalloc peak in bytes)."""
    import tracemalloc
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verifiers_take_their_points_in_slices_within_the_stack_budget(monkeypatch):
    # a budget of four points of 60 x 60 matrices: the same verdicts and
    # deviations as one stack of all 61 points, at a fraction of the peak memory
    from matpencil import pencil
    from helpers import rand_mono
    a = rand_mono(np.random.default_rng(3), 4, 15)
    t = mp.frobenius_triple(a)
    calls = {"det_equality": lambda: mp.det_equality(t.pencil, a),
             "verify_triple": lambda: mp.verify_triple(t, a, rng=5),
             "interp_charpoly": lambda: mp.interp_charpoly(t.pencil)}
    assert pencil._slice_len(t.N) > t.N + 1  # one slice at the default budget
    whole = {name: _traced(fn) for name, fn in calls.items()}
    monkeypatch.setattr(pencil, "STACK_BYTES", 4 * (32 * t.N ** 2 + 256))
    assert pencil._slice_len(t.N) == 4
    for name, fn in calls.items():
        (want, full), (got, sliced) = whole[name], _traced(fn)
        if name == "interp_charpoly":
            np.testing.assert_array_equal(got, want)
        else:
            assert got == want
        assert sliced < full / 4 and sliced < 3 * pencil.STACK_BYTES, name
    assert mp.verify_triple(t, a, rng=5).passed


def test_verifiers_keep_a_tiny_pencil_within_the_stack_budget(monkeypatch):
    # on a 1 x 1 pencil the per-point side arrays, not the matrices, fill a
    # slice; the slices count them, so the peak stays near the budget
    from matpencil import pencil
    a = mp.MatPoly.monomial_poly(np.array([[[0.5]], [[1.0]]]))
    t = mp.frobenius_triple(a)
    monkeypatch.setattr(pencil, "STACK_BYTES", 1 << 18)
    det, det_peak = _traced(lambda: mp.det_equality(t.pencil, a, n_points=200_000))
    assert det.ok and det_peak < 2 * pencil.STACK_BYTES
    coeffs, charpoly_peak = _traced(lambda: mp.interp_charpoly(t.pencil))
    np.testing.assert_allclose(coeffs, [0.5, 1.0], atol=1e-15)
    assert charpoly_peak < 2 * pencil.STACK_BYTES


def test_verify_triple_draws_in_slices_as_one_at_a_time(monkeypatch):
    # draws capped at one point per slice leave the points and the rng state
    # of the uncapped draw
    from matpencil import pencil
    from helpers import rand_mono
    a = rand_mono(np.random.default_rng(4), 2, 3)
    t = mp.frobenius_triple(a)
    rng = np.random.default_rng(6)
    want = mp.verify_triple(t, a, rng=rng)
    monkeypatch.setattr(pencil, "STACK_BYTES", 1)
    rng_sliced = np.random.default_rng(6)
    assert mp.verify_triple(t, a, rng=rng_sliced) == want
    assert rng_sliced.bit_generator.state == rng.bit_generator.state


def _rejecting_case():
    # a(z) = z^2 + 1e-3 z - 4 at tol 0.1: about a third of the draws are rejected
    p = mp.MatPoly.monomial_poly([-4.0, 1e-3, 1.0])
    return mp.frobenius_triple(p), p


@pytest.mark.parametrize("stack_bytes", [None, 1], ids=["one_slice", "one_point_slices"])
def test_verify_triple_forms_each_drawn_points_pencil_once(monkeypatch, stack_bytes):
    from matpencil import pencil
    if stack_bytes is not None:
        monkeypatch.setattr(pencil, "STACK_BYTES", stack_bytes)
    t, p = _rejecting_case()
    points, draws, _, _ = _sequential_verify(t, p, 10, 0.1, np.random.default_rng(0))
    assert draws > len(points)
    formed, real_at = [], mp.Pencil.at
    monkeypatch.setattr(mp.Pencil, "at", lambda self, z: formed.append(np.size(z)) or real_at(self, z))
    rep = mp.verify_triple(t, p, n_points=10, tol=0.1, rng=0)
    assert rep.points == points and sum(formed) == draws


def _nan_where(upper_only: bool):
    """z^2 + 1e-3 z - 4, NaN at every point or only where Im z > 0."""
    _, p = _rejecting_case()

    def fn(z):
        nan = np.imag(z) > 0 if upper_only else np.ones(np.shape(z), bool)
        return np.where(nan[..., None, None], np.nan, mp.eval_at(p, z))
    return mp.CallablePoly(1, 2, fn)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # slogdet of NaN
@pytest.mark.parametrize("stack_bytes", [None, 1], ids=["one_slice", "one_point_slices"])
@pytest.mark.parametrize("upper_only", [False, True], ids=["nan_everywhere", "nan_upper_half"])
def test_a_nan_deviation_fails(monkeypatch, stack_bytes, upper_only):
    # with one point per slice a NaN slice comes before a finite one, which a
    # fold by Python's max (max(0.0, nan) is 0.0) would let pass
    from matpencil import pencil
    if stack_bytes is not None:
        monkeypatch.setattr(pencil, "STACK_BYTES", stack_bytes)
    t, _ = _rejecting_case()
    q = _nan_where(upper_only)
    det = mp.det_equality(t.pencil, q, n_points=9)
    assert not det.ok and np.isnan(det.max_deviation)
    rep = mp.verify_triple(t, q, n_points=9, rng=1)
    assert not rep.passed and np.isnan(rep.det_deviation)
    if upper_only:  # NaN and finite points both, in that order somewhere
        imag = np.imag(rep.points)
        assert np.any(imag[:-1] > 0) and imag[-1] <= 0
