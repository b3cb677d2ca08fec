from fractions import Fraction as Fr

import numpy as np
import pytest

import matpencil as mp
from matpencil import fixtures
from matpencil.errors import ContractError

from helpers import (composite_coeffs, composition_reference, elementary_reference, mono_add,
                     mono_mul, rand_lagrange, rand_mat, rand_mono, shift_left_coeffs,
                     shift_right_coeffs)


def scalar_poly(*coeffs):
    return mp.MatPoly.monomial_poly([float(c) for c in coeffs])


def y_in_identity_block(t):
    """D Y == Y exactly: Y lies where D is the identity, so X (zD - A)^-1 D Y
    and X (zD - A)^-1 Y are the same resolvent."""
    return np.array_equal(t.pencil.D @ t.Y, t.Y)


def det_agrees(pencil, poly_coeffs, n_points, rng):
    """Pencil determinant vs Horner evaluation of monomial matrix coefficients."""
    p = mp.MatPoly.monomial_poly(poly_coeffs)
    return mp.det_equality(pencil, p, n_points=n_points).ok


# --- scalar shifts ---------------------------------------------------------

def test_shift_left_of_z_gives_circle_roots():
    t = mp.frobenius_triple(scalar_poly(0, 1))  # a(z) = z
    e1 = mp.scalar_shift_left(t, [[1.0]], [[1.0]])
    eigs = mp.generalized_eigen(e1.pencil, rng=0).finite
    np.testing.assert_allclose(sorted(eigs, key=lambda z: z.imag), [-1j, 1j], atol=1e-10)
    assert mp.pencil_det_at(e1.pencil, 0.0) == pytest.approx(1.0)


def test_shift_left_det_identity():
    t = mp.frobenius_triple(scalar_poly(1, 1))  # z + 1
    e1 = mp.scalar_shift_left(t, [[1.0]], [[1.0]])
    # z(z+1) + 1
    assert det_agrees(e1.pencil, np.array([1.0, 1.0, 1.0]).reshape(3, 1, 1), 5, 0)


def test_shift_right_scalar_matches_shift_left():
    t = mp.frobenius_triple(scalar_poly(1, 1))
    e1 = mp.scalar_shift_left(t, [[2.0]], [[1.0]])
    e2 = mp.scalar_shift_right(t, [[2.0]], [[1.0]])
    for z in (0.3, -1.2, 2.0 + 1.0j, 0.5j, 1.1):
        assert mp.pencil_det_at(e1.pencil, z) == pytest.approx(mp.pencil_det_at(e2.pencil, z))


def test_shift_right_det_identity():
    t = mp.frobenius_triple(scalar_poly(0, 1))
    e2 = mp.scalar_shift_right(t, [[2.0]], [[1.0]])
    # 2 z^2 + 1
    assert det_agrees(e2.pencil, np.array([1.0, 0.0, 2.0]).reshape(3, 1, 1), 5, 0)


def test_shifts_differ_for_noncommuting_blocks():
    rng = np.random.default_rng(21)
    a = rand_mono(rng, 2, 1)
    d0, c0 = rand_mat(rng, 2), rand_mat(rng, 2)
    ta = mp.frobenius_triple(a)
    tl = mp.scalar_shift_left(ta, d0, c0)
    tr = mp.scalar_shift_right(ta, d0, c0)
    pl = mp.MatPoly.monomial_poly(shift_left_coeffs(a.data, d0, c0))
    pr = mp.MatPoly.monomial_poly(shift_right_coeffs(a.data, d0, c0))
    assert mp.verify_triple(tl, pl, n_points=7, rng=1).passed
    assert mp.verify_triple(tr, pr, n_points=7, rng=2).passed
    devs = [abs(mp.pencil_det_at(tl.pencil, z) - mp.pencil_det_at(tr.pencil, z))
            for z in (0.7, 1.3, -0.4)]
    assert max(devs) > 1e-6


# --- products ---------------------------------------------------------------

def test_product_of_linear_factors():
    t = mp.frobenius_triple(scalar_poly(1, 1))
    f1 = mp.product(t, t, "F1")
    assert np.array_equal(f1.pencil.A, np.array([[-1.0, 0.0], [1.0, -1.0]], dtype=complex))
    assert np.array_equal(f1.pencil.D, np.eye(2, dtype=complex))
    assert det_agrees(f1.pencil, np.array([1.0, 2.0, 1.0]).reshape(3, 1, 1), 5, 0)
    assert mp.resolvent_eval(f1, 0.0)[0, 0] == pytest.approx(1.0)


def test_product_f2_random_pair():
    rng = np.random.default_rng(31)
    a, b = rand_mono(rng, 2, 1), rand_mono(rng, 2, 1)
    tp = mp.product(mp.frobenius_triple(a), mp.frobenius_triple(b), "F2")
    pab = mp.MatPoly.monomial_poly(mono_mul(a.data, b.data))
    assert mp.verify_triple(tp, pab, n_points=7, rng=3).passed
    # resolvent equals b^-1 a^-1 pointwise
    z = 1.7 + 0.3j
    want = np.linalg.inv(b.eval(z)) @ np.linalg.inv(a.eval(z))
    assert np.allclose(mp.resolvent_eval(tp, z), want)


# --- lower-degree addition ---------------------------------------------------

def test_add_constant_to_z_squared():
    t = mp.frobenius_triple(scalar_poly(0, 0, 1))
    g = mp.add_lower_degree(t, scalar_poly(1))
    assert np.array_equal(g.pencil.A, np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex))
    eigs = mp.generalized_eigen(g.pencil, rng=0).finite
    np.testing.assert_allclose(sorted(eigs, key=lambda z: z.imag), [-1j, 1j], atol=1e-10)


def test_add_zero_is_identity_on_pencil():
    rng = np.random.default_rng(41)
    a = rand_mono(rng, 2, 2)
    t = mp.frobenius_triple(a)
    g = mp.add_lower_degree(t, mp.MatPoly.monomial_poly(np.zeros((1, 2, 2))))
    assert np.array_equal(g.pencil.A, t.pencil.A)


def test_add_rebuilds_mandelbrot_cubic():
    # z*(z+1)^2 + 1 via the addition rule matches the glued construction
    t = mp.frobenius_triple(scalar_poly(0, 1, 2, 1))  # z^3 + 2z^2 + z
    g = mp.add_lower_degree(t, scalar_poly(1))
    t2 = mp.frobenius_triple(scalar_poly(1, 1))
    m3 = mp.composite(t2, t2, [[1.0]], [[1.0]])
    for z in (0.5, -1.1, 2.2, 1.0 + 1.0j, -0.3j):
        assert mp.pencil_det_at(g.pencil, z) == pytest.approx(mp.pencil_det_at(m3.pencil, z))


def test_add_verifies_nonmonic_input():
    rng = np.random.default_rng(51)
    a = rand_mono(rng, 2, 3)              # random leading coefficient
    c = rand_mono(rng, 2, 2)
    t = mp.add_lower_degree(mp.frobenius_triple(a), c)
    assert y_in_identity_block(t)
    summed = mp.MatPoly.monomial_poly(mono_add(a.data, c.data))
    assert mp.verify_triple(t, summed, rng=4).passed


def test_add_rejects_equal_degree():
    t = mp.frobenius_triple(scalar_poly(1, 1))
    with pytest.raises(ContractError):
        mp.add_lower_degree(t, scalar_poly(0, 1))


def test_add_rejects_a_chain_that_d_and_x_cannot_carry():
    # a grade-2 companion that claims grade 5: past k = 0 there is no w_k with
    # D w_k = u_k and X w_k = 0 (D's last block is the random leading coefficient)
    rng = np.random.default_rng(52)
    t = mp.frobenius_triple(rand_mono(rng, 2, 2))
    t = mp.StandardTriple(t.X, t.pencil, t.Y, grade=5)
    assert mp.add_lower_degree(t, rand_mono(rng, 2, 1)).N == t.N
    with pytest.raises(ContractError, match="chain"):
        mp.add_lower_degree(t, rand_mono(rng, 2, 2))


# --- composite ----------------------------------------------------------------

def test_composite_reproduces_mandelbrot_levels():
    t = mp.frobenius_triple(scalar_poly(1, 1))
    for n in (3, 4, 5):
        t = mp.composite(t, t, [[1.0]], [[1.0]])
        m = mp.mandelbrot_matrix(n)
        assert np.array_equal(t.pencil.A, m.entries.toarray().astype(complex))
        assert np.array_equal(t.pencil.D, np.eye(m.dim, dtype=complex))
        assert np.array_equal(t.X, m.triple_X.astype(complex))
        assert np.array_equal(t.Y, m.triple_Y.astype(complex))


def test_composite_det_at_zero_is_det_c0():
    rng = np.random.default_rng(61)
    a, b = rand_mono(rng, 2, 2), rand_mono(rng, 2, 1)
    d0, c0 = rand_mat(rng, 2), rand_mat(rng, 2)
    t = mp.composite(mp.frobenius_triple(a), mp.frobenius_triple(b), d0, c0)
    assert mp.pencil_det_at(t.pencil, 0.0) == pytest.approx(np.linalg.det(c0))


def test_composite_family_step_dimension_and_det():
    c0, c1 = fixtures.family_constant(0), fixtures.family_constant(1)
    h1 = mp.MatPoly.monomial_poly(np.stack([c0, np.eye(4)]))
    t1 = mp.frobenius_triple(h1)
    t2 = mp.composite(t1, t1, np.eye(4), c1)
    assert t2.N == 12  # 4 * (2^2 - 1)
    h2 = composite_coeffs(h1.data, np.eye(4), h1.data, c1)
    assert mp.det_equality(t2.pencil, mp.MatPoly.monomial_poly(h2), n_points=13).ok


# --- elementary triples ---------------------------------------------------------

def test_frobenius_quadratic_verifies():
    p = scalar_poly(1, 0, 1)
    rep = mp.verify_triple(mp.frobenius_triple(p), p, tol=1e-10, rng=5)
    assert rep.passed


def test_frobenius_identity_leading_linear():
    c0 = np.array([[0.5, -1.0], [2.0, 0.25]])
    p = mp.MatPoly.monomial_poly(np.stack([c0, np.eye(2)]))
    t = mp.frobenius_triple(p)
    assert np.array_equal(t.pencil.D, np.eye(2, dtype=complex))
    assert np.array_equal(t.pencil.A, -c0.astype(complex))
    assert np.array_equal(t.X, np.eye(2, dtype=complex))
    assert np.array_equal(t.Y, np.eye(2, dtype=complex))


def test_frobenius_singular_leading_coefficient():
    p = mp.MatPoly.monomial_poly(np.stack([np.eye(2), np.diag([1.0, 0.0])]))
    t = mp.frobenius_triple(p)
    # det(zD - A) = (z + 1) * 1: degree 1, so one finite and one infinite eigenvalue
    rep = mp.generalized_eigen(t.pencil, rng=0)
    assert rep.infinite_count == 1
    np.testing.assert_allclose(rep.finite, [-1.0], atol=1e-10)
    for z in (0.5, 2.0, -3.0):
        assert mp.pencil_det_at(t.pencil, z) == pytest.approx(z + 1)


def test_lagrange_scalar_toy():
    toy = mp.MatPoly.lagrange_poly([0.0, 1.0], [-1.0, 1.0], [[[0.0]], [[1.0]]])
    t = mp.lagrange_triple(toy)
    assert t.N == 3
    for z in (2.0, -1.0, 0.5 + 0.5j, 3.0):
        assert mp.pencil_det_at(t.pencil, z) == pytest.approx(z)


def test_lagrange_fixture_verifies():
    a = fixtures.mixed_lagrange_poly()
    t = mp.lagrange_triple(a)
    assert t.N == (a.grade + 2) * a.dim == 15
    assert mp.verify_triple(t, a, tol=1e-8, rng=6).passed


def test_lagrange_constant_samples():
    p = mp.MatPoly.lagrange_poly([0.0, 1.0], [-1.0, 1.0], [np.eye(2), np.eye(2)])
    t = mp.lagrange_triple(p)
    for z in (0.7, -2.0, 1.4 + 0.2j):
        assert mp.pencil_det_at(t.pencil, z) == pytest.approx(1.0)


def test_chebyshev_t2_roots():
    t = mp.chebyshev_triple(mp.MatPoly.chebyshev_poly([0.0, 0.0, 1.0]))
    eigs = np.sort(mp.generalized_eigen(t.pencil, rng=0).finite.real)
    np.testing.assert_allclose(eigs, [-np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-10)


def test_chebyshev_linear():
    t = mp.chebyshev_triple(mp.MatPoly.chebyshev_poly([3.0, 1.0]))
    rep = mp.generalized_eigen(t.pencil, rng=0)
    np.testing.assert_allclose(rep.finite, [-3.0], atol=1e-12)


def test_chebyshev_fixture_verifies():
    b = fixtures.mixed_chebyshev_poly()
    t = mp.chebyshev_triple(b)
    assert t.N == b.grade * b.dim == 9
    assert mp.verify_triple(t, b, tol=1e-8, rng=7).passed


def test_chebyshev_singular_leading_verifies():
    rng = np.random.default_rng(71)
    coeffs = np.stack([rand_mat(rng, 2), rand_mat(rng, 2), np.diag([1.0, 0.0]).astype(complex)])
    p = mp.MatPoly.chebyshev_poly(coeffs)
    t = mp.chebyshev_triple(p)
    assert y_in_identity_block(t)
    assert mp.verify_triple(t, p, rng=8).passed


# The elementary constructors return their layouts as built, with no run-time
# sign repair, so these sweeps are what guard X (zD - A)^-1 Y = a^-1(z).

@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("monic", [True, False], ids=["monic", "nonmonic"])
@pytest.mark.parametrize("s", range(1, 7))
def test_frobenius_sign_convention(s, monic, r):
    p = rand_mono(np.random.default_rng((131, s, monic, r)), r, s, monic=monic)
    t = mp.frobenius_triple(p)
    if s >= 2:  # for s = 1, D Y = alpha_1 Y
        assert y_in_identity_block(t)
    assert mp.verify_triple(t, p, tol=1e-8, rng=s).passed


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("nodes", range(2, 8))
def test_lagrange_sign_convention(nodes, r):
    p = rand_lagrange(np.random.default_rng((141, nodes, r)), r, nodes - 1)
    assert mp.verify_triple(mp.lagrange_triple(p), p, tol=1e-8, rng=nodes).passed


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("singular", [False, True], ids=["regular_lead", "singular_lead"])
@pytest.mark.parametrize("n", range(1, 9))
def test_chebyshev_sign_convention(n, singular, r):
    rng = np.random.default_rng((151, n, singular, r))
    coeffs = np.stack([rand_mat(rng, r) for _ in range(n + 1)])
    if singular:
        coeffs[n, -1, :] = 0.0  # rank r - 1 leading block
    p = mp.MatPoly.chebyshev_poly(coeffs)
    t = mp.chebyshev_triple(p)
    if n >= 2:  # for n = 1, D Y = b_1 Y
        assert y_in_identity_block(t)
    assert mp.verify_triple(t, p, tol=1e-8, rng=n).passed


# --- structure properties ----------------------------------------------------

def test_block_hessenberg_preserved_by_composite_and_f2():
    rng = np.random.default_rng(81)
    a, b = rand_mono(rng, 2, 2), rand_mono(rng, 2, 3)
    ta, tb = mp.frobenius_triple(a), mp.frobenius_triple(b)
    assert mp.is_block_upper_hessenberg(ta.pencil.A, 2)
    tc = mp.composite(ta, tb, rand_mat(rng, 2), rand_mat(rng, 2))
    assert mp.is_block_upper_hessenberg(tc.pencil.A, 2)
    tf = mp.product(ta, tb, "F2")
    assert mp.is_block_upper_hessenberg(tf.pencil.A, 2)
    # recursion keeps the shape
    tcc = mp.composite(tc, tc, rand_mat(rng, 2), rand_mat(rng, 2))
    assert mp.is_block_upper_hessenberg(tcc.pencil.A, 2)


def test_size_bookkeeping():
    rng = np.random.default_rng(91)
    r = 3
    a, b = rand_mono(rng, r, 2), rand_mono(rng, r, 3)
    ta, tb = mp.frobenius_triple(a), mp.frobenius_triple(b)
    assert ta.N == 2 * r and tb.N == 3 * r
    assert mp.composite(ta, tb, rand_mat(rng, r), rand_mat(rng, r)).N == ta.N + r + tb.N
    assert mp.product(ta, tb, "F1").N == ta.N + tb.N
    assert mp.add_lower_degree(ta, rand_mono(rng, r, 1)).N == ta.N
    assert mp.scalar_shift_left(ta, rand_mat(rng, r), rand_mat(rng, r)).N == ta.N + r
    lag = mp.lagrange_triple(
        mp.MatPoly.lagrange_poly([0.0, 1.0, 2.0], mp.barycentric_weights([0.0, 1.0, 2.0]),
                                 np.stack([rand_mat(rng, r) for _ in range(3)])))
    assert lag.N == (2 + 2) * r
    cheb = mp.chebyshev_triple(
        mp.MatPoly.chebyshev_poly(np.stack([rand_mat(rng, r) for _ in range(4)])))
    assert cheb.N == 3 * r


def test_scalar_shifts_agree_for_commuting_case():
    rng = np.random.default_rng(101)
    a = rand_mono(rng, 1, 3)
    d0, c0 = rand_mat(rng, 1), rand_mat(rng, 1)
    tl = mp.scalar_shift_left(mp.frobenius_triple(a), d0, c0)
    tr = mp.scalar_shift_right(mp.frobenius_triple(a), d0, c0)
    for _ in range(tl.N + 1):
        z = 2.0 * np.exp(2j * np.pi * rng.random())
        assert mp.pencil_det_at(tl.pencil, z) == pytest.approx(mp.pencil_det_at(tr.pencil, z))


def test_composite_inverse_corner_block_at_zero():
    # observational: upper-right sr x tr block of (0*D - H)^-1 for the glued
    # integer family; no contract attached to the value.
    for n in (3, 4, 5):
        m = mp.mandelbrot_matrix(n)
        d = m.dim
        inv = np.linalg.inv(-m.entries.toarray().astype(float))
        sr = (d - 1) // 2
        u = inv[:sr, sr + 1:]
        print(f"level {n}: max |corner block| at z=0 is {np.abs(u).max():.3e}")
        assert np.isfinite(u).all()


def test_constructors_reject_grade_zero():
    const = mp.MatPoly.monomial_poly(np.eye(2).reshape(1, 2, 2))
    with pytest.raises(ContractError):
        mp.frobenius_triple(const)
    with pytest.raises(ContractError):
        mp.chebyshev_triple(mp.MatPoly.chebyshev_poly(np.eye(2).reshape(1, 2, 2)))
    with pytest.raises(ContractError):
        mp.lagrange_triple(mp.MatPoly.lagrange_poly([0.0], [1.0], np.eye(2).reshape(1, 2, 2)))


def test_constructors_copy_inputs():
    rng = np.random.default_rng(111)
    a = rand_mono(rng, 2, 2)
    ta = mp.frobenius_triple(a)
    before = ta.pencil.A.copy()
    tc = mp.composite(ta, ta, rand_mat(rng, 2), rand_mat(rng, 2))
    tc.pencil.A[0, 0] += 99.0
    tc.Y[0, 0] += 99.0
    assert np.array_equal(ta.pencil.A, before)


def test_nonmonic_inputs_accepted_by_all_composers():
    rng = np.random.default_rng(121)
    a = rand_mono(rng, 2, 2)          # random leading coefficient
    b = rand_mono(rng, 2, 2)
    ta, tb = mp.frobenius_triple(a), mp.frobenius_triple(b)
    assert y_in_identity_block(ta) and y_in_identity_block(tb)
    assert mp.verify_triple(ta, a, rng=0).passed and mp.verify_triple(tb, b, rng=0).passed
    d0, c0 = rand_mat(rng, 2), rand_mat(rng, 2)
    pl = mp.MatPoly.monomial_poly(shift_left_coeffs(a.data, d0, c0))
    assert mp.verify_triple(mp.scalar_shift_left(ta, d0, c0), pl, n_points=6, rng=1).passed
    pab = mp.MatPoly.monomial_poly(mono_mul(a.data, b.data))
    assert mp.verify_triple(mp.product(ta, tb, "F1"), pab, n_points=6, rng=2).passed
    ph = mp.MatPoly.monomial_poly(composite_coeffs(a.data, d0, b.data, c0))
    assert mp.verify_triple(mp.composite(ta, tb, d0, c0), ph, n_points=6, rng=3).passed


# --- in-place assembly --------------------------------------------------------

_RULES = {
    "shift_left": lambda ta, tb, d0, c0: mp.scalar_shift_left(ta, d0, c0),
    "shift_right": lambda ta, tb, d0, c0: mp.scalar_shift_right(ta, d0, c0),
    "F1": lambda ta, tb, d0, c0: mp.product(ta, tb, "F1"),
    "F2": lambda ta, tb, d0, c0: mp.product(ta, tb, "F2"),
    "composite": mp.composite,
}


@pytest.mark.parametrize("rule", list(_RULES))
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("data", ["real", "integer", "complex", "mixed"])
def test_assembly_matches_the_np_block_reference(rule, r, data):
    # "mixed": a real first factor, a complex second one, integer d0 and a
    # complex c0; the factors differ in size so that no block is square by luck
    rng = np.random.default_rng(r)

    def draw(shape, kind):
        if kind == "integer":
            return rng.integers(-3, 4, shape)
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if kind == "complex" else x

    kinds = {"mixed": ("real", "complex", "integer", "complex")}.get(data, (data,) * 4)
    ta = mp.frobenius_triple(mp.MatPoly.monomial_poly(draw((3, r, r), kinds[0])))
    tb = mp.frobenius_triple(mp.MatPoly.monomial_poly(draw((2, r, r), kinds[1])))
    d0, c0 = draw((r, r), kinds[2]), draw((r, r), kinds[3])
    t = _RULES[rule](ta, tb, d0, c0)
    *want, meta = composition_reference(rule, ta, tb, d0, c0)
    for name, got, ref in zip("XDAY", (t.X, t.pencil.D, t.pencil.A, t.Y), want):
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape), name
        assert got.tobytes() == ref.tobytes(), name
    assert t.pencil.block_meta == meta


def test_family_pencils_match_the_np_block_reference():
    from matpencil import experiments
    triples = experiments.family_triple(6)
    for k, (t, prev) in enumerate(zip(triples[1:], triples), start=1):
        *want, meta = composition_reference("composite", prev, prev, np.eye(4),
                                            fixtures.family_constant(k))
        for got, ref in zip((t.X, t.pencil.D, t.pencil.A, t.Y), want):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert t.pencil.block_meta == meta


# --- grade bookkeeping --------------------------------------------------------

#: the grade each rule returns for deg a = 3 and deg b = 2: deg a + 1 for a
#: shift, deg a + deg b for a product, deg a + deg b + 1 for the composite
_RULE_GRADES = {"shift_left": 4, "shift_right": 4, "F1": 5, "F2": 5, "composite": 6}


@pytest.mark.parametrize("rule", list(_RULES))
def test_rules_add_up_the_grades_and_propagate_an_unknown_one(rule):
    rng = np.random.default_rng(131)
    ta = mp.frobenius_triple(rand_mono(rng, 2, 3))
    tb = mp.frobenius_triple(rand_mono(rng, 2, 2))
    ua, ub = (mp.StandardTriple(t.X, t.pencil, t.Y, grade=None) for t in (ta, tb))
    d0, c0 = rand_mat(rng, 2), rand_mat(rng, 2)
    build = _RULES[rule]
    assert build(ta, tb, d0, c0).grade == _RULE_GRADES[rule]
    assert build(ua, tb, d0, c0).grade is None
    assert build(ua, ub, d0, c0).grade is None
    if rule in ("F1", "F2", "composite"):  # the rules that read b
        assert build(ta, ub, d0, c0).grade is None


def test_add_lower_degree_keeps_the_grade_and_needs_it_known():
    rng = np.random.default_rng(141)
    ta = mp.frobenius_triple(rand_mono(rng, 2, 3))
    c = rand_mono(rng, 2, 1)
    assert mp.add_lower_degree(ta, c).grade == 3
    with pytest.raises(ContractError, match="does not know its grade"):
        mp.add_lower_degree(mp.StandardTriple(ta.X, ta.pencil, ta.Y, grade=None), c)


def _elementary_poly(kind, r, grade, data, rng):
    """A random grade-`grade` r x r polynomial in `kind`'s basis, its data
    integer, float64 with zero entries, complex or float32."""
    def draw(shape):
        if data == "integer":
            return rng.integers(-3, 4, shape)
        x = rng.standard_normal(shape) * (rng.random(shape) < 0.6)
        if data == "complex":
            x = x + 1j * rng.standard_normal(shape)
        return x.astype(np.float32) if data == "float32" else x

    coeffs = draw((grade + 1, r, r))
    if kind == "monomial":
        return mp.MatPoly.monomial_poly(coeffs)
    if kind == "chebyshev":
        return mp.MatPoly.chebyshev_poly(coeffs)
    nodes = np.arange(grade + 1) if data == "integer" else np.arange(grade + 1) + draw(grade + 1)
    weights = mp.barycentric_weights(nodes)
    if data == "float32":
        nodes, weights = nodes.astype(np.float32), weights.astype(np.float32)
    return mp.MatPoly.lagrange_poly(nodes, weights, coeffs)


@pytest.mark.parametrize("kind", ["monomial", "lagrange", "chebyshev"])
@pytest.mark.parametrize("data", ["integer", "float64", "complex", "float32"])
def test_elementary_triples_match_the_slice_loop_reference(kind, data):
    # Frobenius byte for byte; Lagrange and Chebyshev once + 0.0 folds -0.0
    # into +0.0, since the reference negates and rescales its zeros
    build = {"monomial": mp.frobenius_triple, "lagrange": mp.lagrange_triple,
             "chebyshev": mp.chebyshev_triple}[kind]
    rng = np.random.default_rng(20)
    for r in (1, 2, 3):
        for grade in range(1, 6):
            p = _elementary_poly(kind, r, grade, data, rng)
            t, ref = build(p), elementary_reference(p)
            assert t.grade == ref.grade == grade
            assert t.pencil.block_meta == ref.pencil.block_meta
            for got, want in zip((t.X, t.pencil.D, t.pencil.A, t.Y),
                                 (ref.X, ref.pencil.D, ref.pencil.A, ref.Y)):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                if kind == "monomial":
                    assert got.tobytes() == want.tobytes()
                else:
                    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


# --- dtype rule --------------------------------------------------------------

# A non-monic 2x2 quadratic, and Lagrange nodes 0, 1 with integer weights.
_DTYPE_COEFFS = np.array([[[2, -1], [1, 3]], [[0, 1], [-1, 2]], [[1, 0], [0, 2]]])


def _build(kind, dtype):
    coeffs = _DTYPE_COEFFS.astype(dtype)
    m = coeffs[0]
    ta = mp.frobenius_triple(mp.MatPoly.monomial_poly(coeffs))
    if kind == "frobenius":
        return ta
    if kind == "lagrange":
        nodes, weights = np.array([0, 1]).astype(dtype), np.array([-1, 1]).astype(dtype)
        return mp.lagrange_triple(mp.MatPoly.lagrange_poly(nodes, weights, coeffs[:2]))
    if kind == "chebyshev":
        return mp.chebyshev_triple(mp.MatPoly.chebyshev_poly(coeffs))
    if kind == "shift_left":
        return mp.scalar_shift_left(ta, m, m.T)
    if kind == "shift_right":
        return mp.scalar_shift_right(ta, m, m.T)
    if kind == "product":
        return mp.product(ta, ta, "F1")
    if kind == "add_lower_degree":
        return mp.add_lower_degree(ta, mp.MatPoly.monomial_poly(coeffs[:1]))
    return mp.composite(ta, ta, m, m.T)


_KINDS = ["frobenius", "lagrange", "chebyshev", "shift_left", "shift_right", "product",
          "add_lower_degree", "composite"]


def _parts(t):
    return {"X": t.X, "Y": t.Y, "D": t.pencil.D, "A": t.pencil.A}


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("dtype, want", [(np.int64, np.float64), (np.float64, np.float64),
                                         (np.complex128, np.complex128)])
def test_constructor_dtype_rule(kind, dtype, want):
    t = _build(kind, dtype)
    if kind in ("frobenius", "add_lower_degree"):  # Y passes through from the companion
        assert y_in_identity_block(t)
        coeffs = _DTYPE_COEFFS.astype(dtype)
        if kind == "add_lower_degree":
            coeffs = mono_add(coeffs, coeffs[:1])
        assert mp.verify_triple(t, mp.MatPoly.monomial_poly(coeffs), rng=0).passed
    for name, arr in _parts(t).items():
        assert arr.dtype == want, f"{kind}: {name} is {arr.dtype}"
    # real data gives the same triple as the same data carried as complex
    ref = _parts(_build(kind, np.complex128))
    for name, arr in _parts(t).items():
        np.testing.assert_allclose(arr, ref[name], rtol=0, atol=1e-12)


def test_mixed_real_complex_composite_is_complex():
    rng = np.random.default_rng(131)
    real = mp.frobenius_triple(mp.MatPoly.monomial_poly(_DTYPE_COEFFS.astype(float)))
    cplx = mp.frobenius_triple(rand_mono(rng, 2, 2))
    eye = np.eye(2)
    for t in (mp.composite(real, cplx, eye, eye), mp.composite(real, real, eye, 1j * eye),
              mp.product(cplx, real), mp.scalar_shift_left(real, eye, rand_mat(rng, 2))):
        assert all(arr.dtype == np.complex128 for arr in _parts(t).values())



@pytest.mark.parametrize("kind", _KINDS)
def test_constructors_keep_fraction_data_exact(monkeypatch, kind):
    # _build on _DTYPE_COEFFS / 3 as Fractions: no block may turn into a float
    thirds = np.array([[[Fr(int(v), 3) for v in row] for row in m] for m in _DTYPE_COEFFS])
    monkeypatch.setitem(globals(), "_DTYPE_COEFFS", thirds)
    for name, arr in _parts(_build(kind, object)).items():
        assert arr.dtype == object
        kinds = {type(v) for v in arr.ravel()}
        assert kinds <= {int, Fr}, f"{kind}: {name} holds {kinds}"


@pytest.mark.parametrize("b, want", [
    ((Fr(1, 2), Fr(1, 3), 1), [Fr(-1, 2), Fr(1, 3), 2]),
    # T_3 = 4z^3 - 3z, T_4 = 8z^4 - 8z^2 + 1
    ((Fr(1, 2), Fr(1, 3), 1, Fr(2, 7), Fr(3, 5)),
     [Fr(1, 10), Fr(-11, 21), Fr(-14, 5), Fr(8, 7), Fr(24, 5)]),
], ids=["grade_2", "grade_4"])
def test_chebyshev_charpoly_is_exact_on_fractions(b, want):
    coeffs = np.array([[[Fr(c)]] for c in b], dtype=object)
    t = mp.chebyshev_triple(mp.MatPoly.chebyshev_poly(coeffs))
    assert mp.interp_charpoly(t.pencil) == want

# The coefficient-level helpers follow the same rule, with each argument of
# _DTYPE_COEFFS-derived data; the last argument alone is made complex below.
_COMPOSE_ARGS = {
    mono_mul: lambda c: (c, c[::-1]),
    mono_add: lambda c: (c, c[:1]),
    shift_left_coeffs: lambda c: (c, c[0], c[1]),
    shift_right_coeffs: lambda c: (c, c[0], c[1]),
    composite_coeffs: lambda c: (c, c[0], c[::-1], c[1]),
}


@pytest.mark.parametrize("helper", list(_COMPOSE_ARGS), ids=lambda f: f.__name__)
@pytest.mark.parametrize("dtype, want", [(np.int64, np.float64), (np.float64, np.float64),
                                         (np.complex128, np.complex128)])
def test_compose_dtype_rule(helper, dtype, want):
    args = _COMPOSE_ARGS[helper](_DTYPE_COEFFS.astype(dtype))
    got = helper(*args)
    assert got.dtype == want
    ref = helper(*_COMPOSE_ARGS[helper](_DTYPE_COEFFS.astype(np.complex128)))
    np.testing.assert_array_equal(got, ref)
    # any complex input makes the output complex
    mixed = helper(*args[:-1], 1j * args[-1])
    assert mixed.dtype == np.complex128
