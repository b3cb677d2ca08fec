from fractions import Fraction

import numpy as np
import pytest

import matpencil as mp
from matpencil.errors import ContractError, ResourceLimitError, VerificationError
from matpencil.mandelbrot import mandelbrot_dim

import helpers
from helpers import inverse_fraction_fallback, matrix_det


def _plant(monkeypatch, where, value):
    """Patch M_n's nonzeros so that entry `where` (negative indices count from
    the end) holds `value`; a value of 0 drops the entry."""
    from matpencil import mandelbrot
    real = mandelbrot._matrix_nonzeros

    def planted(n):
        rows, cols, vals = real(n)
        i, j = (k % mandelbrot_dim(n) for k in where)
        keep = (rows != i) | (cols != j)
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        if value:
            rows, cols, vals = np.r_[rows, i], np.r_[cols, j], np.r_[vals, np.int8(value)]
        return rows, cols, vals

    monkeypatch.setattr(mandelbrot, "_matrix_nonzeros", planted)


def _inverse_with(monkeypatch, n, i, j, value=None):
    """Patch the inverse's nonzero lists to those of M_n^-1 with entry (i, j)
    set to `value`; by default a zero becomes 1 and a nonzero is dropped."""
    from matpencil import mandelbrot
    real = mandelbrot._inverse_nonzeros
    bad = mp.inverse_structure(n).inverse.toarray()
    bad[i, j] = 1 - abs(int(bad[i, j])) if value is None else value
    keys = np.flatnonzero(bad)
    monkeypatch.setattr(mandelbrot, "_inverse_nonzeros",
                        lambda level: (keys, bad.reshape(-1)[keys], *real(level)[2:]))


M3 = [[-1, 0, -1], [-1, 0, 0], [0, -1, -1]]
M3_INV = [[0, -1, 0], [1, -1, -1], [-1, 1, 0]]


def test_base_levels():
    assert mp.mandelbrot_matrix(2).entries.toarray().tolist() == [[-1]]
    assert mp.mandelbrot_matrix(3).entries.toarray().tolist() == M3
    assert mp.mandelbrot_matrix(5).dim == 15


def test_dims_follow_doubling_rule():
    for n in range(2, 11):
        assert mandelbrot_dim(n) == 2 ** (n - 1) - 1
        assert mp.mandelbrot_matrix(n).dim == mandelbrot_dim(n)
    assert mandelbrot_dim(3) == 2 * mandelbrot_dim(2) + 1


def test_recurrence_values():
    assert mp.mandelbrot_poly_at(2, -1) == 0
    assert mp.mandelbrot_poly_coeffs(3) == [1, 1, 2, 1]
    assert mp.mandelbrot_poly_at(4, 1) == 26


def test_charpoly_identity_small_levels():
    assert mp.charpoly_identity(3, range(-2, 3))
    assert mp.charpoly_identity(4, range(-2, 3))


def test_charpoly_identity_negative_control():
    from matpencil._exact import pencil_dets
    m = mp.mandelbrot_matrix(4).entries.toarray()
    m[0, 6] = 0  # drop the top-right glue entry
    z = 2
    assert pencil_dets(np.eye(7, dtype=np.int64), m, [z])[0] != mp.mandelbrot_poly_at(4, z)


def test_inverse_structure_level3_display():
    rep = mp.inverse_structure(3)
    assert rep.inverse.toarray().tolist() == M3_INV
    assert rep.corner_value == -1
    assert rep.first_col.ravel().tolist() == [0, 1, -1]
    assert rep.last_row.ravel().tolist() == [-1, 1, 0]


def test_inverse_structure_level2():
    rep = mp.inverse_structure(2)
    assert rep.inverse.toarray().tolist() == [[-1]]
    assert rep.corner_value == -1 and rep.height1 and rep.zero_block_ok


def test_inverse_structure_level6():
    rep = mp.inverse_structure(6)
    assert rep.height1 and rep.corner_value == -1 and rep.zero_block_ok


def test_inverse_matches_fraction_elimination():
    for n in (2, 3, 4, 5):
        got = mp.inverse_structure(n).inverse.toarray()
        assert np.array_equal(got, inverse_fraction_fallback(n))


def test_family_is_height1_with_height1_inverse():
    for n in range(2, 11):
        m = mp.mandelbrot_matrix(n)
        assert set(np.unique(m.entries.toarray())) <= {-1, 0}
        rep = mp.inverse_structure(n)
        assert set(np.unique(rep.inverse.toarray())) <= {-1, 0, 1}
        assert rep.corner_value == -1


def test_block_identities():
    # upper-left and lower-right blocks of the next inverse both equal
    # inv + C R, whose first column and last row vanish
    for n in (3, 4, 5, 6):
        rep = mp.inverse_structure(n)
        nxt = mp.inverse_structure(n + 1)
        d = rep.inverse.shape[0]
        combined = rep.inverse.toarray() + rep.first_col @ rep.last_row
        assert np.array_equal(nxt.inverse.toarray()[:d, :d], combined)
        assert np.array_equal(nxt.inverse.toarray()[d + 1:, d + 1:], combined)
        assert not combined[:, 0].any()
        assert not combined[-1, :].any()
        # recursive column/row shapes
        assert np.array_equal(nxt.first_col,
                              np.vstack([np.zeros((d, 1), dtype=np.int64), [[1]], rep.first_col]))
        assert np.array_equal(nxt.last_row,
                              np.hstack([rep.last_row, [[1]], np.zeros((1, d), dtype=np.int64)]))


def test_matrix_is_upper_hessenberg():
    for n in (3, 4, 5, 6):
        assert mp.is_block_upper_hessenberg(mp.mandelbrot_matrix(n).entries.toarray(), 1)


def test_level_bounds():
    with pytest.raises(ContractError):
        mp.mandelbrot_matrix(1)
    with pytest.raises(ResourceLimitError):
        mp.mandelbrot_matrix(15)
    with pytest.raises(ResourceLimitError):
        mp.inverse_structure(15)


def test_determinant_is_unimodular():
    for n in (2, 3, 4, 5, 6):
        det = matrix_det(mp.mandelbrot_matrix(n).entries.toarray().tolist())
        assert det in (-1, 1)
        # sign consistent with the recurrence at 0: det(-M) = p_n(0) = 1
        assert det == (-1) ** mandelbrot_dim(n)


# ---------------------------------------------------------------------------
# int8 storage, in-place assembly and the sparse Hessenberg determinant,
# each against the code it replaced
# ---------------------------------------------------------------------------

def _dense_hessenberg_det(rows):
    """The O(n^2) leading-minor recurrence over every entry (reference)."""
    n = len(rows)
    if n == 0:
        return 1
    minors = [1, rows[0][0]]
    for k in range(2, n + 1):
        total = rows[k - 1][k - 1] * minors[k - 1]
        prod = 1
        sign = -1
        for i in range(k - 1, 0, -1):
            prod = prod * rows[i][i - 1]
            total = total + sign * rows[i - 1][k - 1] * minors[i - 1] * prod
            sign = -sign
        minors.append(total)
    return minors[n]


def _int64_matrix_reference(n):
    """M_n by the two-copy recursion in int64, one new matrix per level."""
    m = np.array([[-1]], dtype=np.int64)
    for _ in range(2, n):
        d = m.shape[0]
        big = np.zeros((2 * d + 1, 2 * d + 1), dtype=np.int64)
        big[:d, :d] = m
        big[d + 1:, d + 1:] = m
        big[0, 2 * d] = -1
        big[d, d - 1] = -1
        big[d + 1, d] = -1
        m = big
    return m


def _int64_inverse_reference(n):
    """M_n^-1 by the recursive block formula in int64 with full-size temporaries."""
    inv = col = row = np.array([[-1]], dtype=np.int64)
    for _ in range(2, n):
        d = inv.shape[0]
        cr = col @ row
        block = inv + cr
        big = np.zeros((2 * d + 1, 2 * d + 1), dtype=np.int64)
        big[:d, :d] = block
        big[:d, d:d + 1] = col
        big[d, :d] = -row
        big[d, d] = -1
        big[d, d + 1:] = row
        big[d + 1:, :d] = -cr
        big[d + 1:, d:d + 1] = -col
        big[d + 1:, d + 1:] = block
        inv, col, row = big, big[:, :1], big[-1:, :]
    return inv


def _random_hessenberg(rng, n, fractions):
    def entry():
        if rng.random() < 0.4:  # zeros, on the subdiagonal too
            return 0
        x = int(rng.integers(-5, 6))
        return Fraction(x, int(rng.integers(1, 5))) if fractions else x
    return [[entry() if i <= j + 1 else 0 for j in range(n)] for i in range(n)]


def _nonzeros(rows):
    """Rows, columns and (dtype object) values of the nonzeros of a square
    matrix given as rows, in row-major order."""
    a = np.array(rows, dtype=object).reshape(len(rows), len(rows))
    r, c = np.nonzero(a)
    return r, c, a[r, c]


def _layout(rows):
    from matpencil._exact import unit_hessenberg
    return unit_hessenberg(len(rows), *_nonzeros(rows))


@pytest.mark.parametrize("fractions", [False, True])
def test_hessenberg_det_matches_dense_recurrence(fractions):
    # zero and non-unit subdiagonal entries: no Hyman layout, pencil_dets takes Bareiss
    from matpencil._exact import hessenberg_det
    rng = np.random.default_rng(11 + fractions)
    for n in range(13):
        for _ in range(25):
            rows = _random_hessenberg(rng, n, fractions)
            want = _dense_hessenberg_det(rows)
            assert matrix_det(rows) == want
            assert matrix_det(np.array(rows, dtype=object).reshape(n, n)) == want
            if not fractions:
                got = matrix_det(np.array(rows, dtype=np.int64).reshape(n, n))
                assert got == want and type(got) is int
            layout = _layout(rows)
            assert (layout is None) == any(rows[i][i - 1] not in (1, -1) for i in range(1, n))
            assert layout is None or hessenberg_det(*layout) == want


def test_hessenberg_det_of_numpy_integers_is_an_exact_python_int():
    for dtype in (np.int8, np.int64):
        got = matrix_det(np.diag(np.full(40, 7, dtype=dtype)))
        assert got == 7 ** 40 > 2 ** 63 and type(got) is int
    # numpy scalars inside an object array are widened too, on Hyman's path
    # (subdiagonal 1) and on Bareiss's (subdiagonal 0)
    for sub in (np.int64(1), np.int64(0)):
        rows = np.empty((40, 40), dtype=object)
        rows[:] = np.int64(0)
        for i in range(40):
            rows[i, i] = np.int64(7)
            if i:
                rows[i, i - 1] = sub
        got = matrix_det(rows)
        assert got == 7 ** 40 and type(got) is int


def test_matrix_and_inverse_equal_int64_recursions():
    for n in range(2, 13):
        m = mp.mandelbrot_matrix(n)
        dense = m.entries.toarray()
        assert m.entries.dtype == dense.dtype == np.int8
        assert m.entries.shape == dense.shape and dense.flags.c_contiguous
        assert np.array_equal(dense, _int64_matrix_reference(n))
        rep = mp.inverse_structure(n)
        ref = _int64_inverse_reference(n)
        inv = rep.inverse.toarray()
        assert rep.inverse.dtype == inv.dtype == rep.first_col.dtype == rep.last_row.dtype
        assert inv.dtype == np.int8
        assert rep.inverse.shape == inv.shape and inv.flags.c_contiguous
        assert np.array_equal(inv, ref)
        assert np.array_equal(rep.first_col, ref[:, :1])
        assert np.array_equal(rep.last_row, ref[-1:, :])
        # the nonzeros themselves: sorted flat keys, each once, and their values
        for held, want in ((m.entries, dense), (rep.inverse, inv)):
            assert held.keys.dtype == np.int64 and held.values.dtype == np.int8
            assert np.array_equal(held.keys, np.flatnonzero(want))
            assert np.array_equal(held.values, want.reshape(-1)[held.keys])


def test_nonzero_matrix_reads_like_its_dense_array():
    from matpencil.mandelbrot import NonzeroMatrix
    m5, inv5 = mp.mandelbrot_matrix(5).entries, mp.inverse_structure(5).inverse
    for held in (m5, inv5):
        dense = held.toarray()
        assert held.nbytes == held.keys.nbytes + held.values.nbytes == 9 * len(held.keys)
        # one entry: stored, missing, negative indices, numpy integers
        (i, j), (zi, zj) = np.argwhere(dense)[3], np.argwhere(dense == 0)[3]
        assert held[i, j] == dense[i, j] != 0 and held[zi, zj] == 0
        assert type(held[i, j]) is type(held[zi, zj]) is np.int8
        for i, j in [(0, 0), (-1, 0), (14, -15), (np.int64(7), np.int8(3))]:
            assert held[i, j] == dense[i, j]
        for i, j in [(15, 0), (0, 15), (-16, 0), (0, -16)]:
            with pytest.raises(IndexError):
                held[i, j]
        # min and max count the missing entries, which are zeros
        assert (held.min(), held.max()) == (dense.min(), dense.max())
    assert (m5.min(), m5.max()) == (-1, 0) and (inv5.min(), inv5.max()) == (-1, 1)
    # M_2 = [[-1]] and its inverse have no missing entry, so no zero either
    for m2 in (mp.mandelbrot_matrix(2).entries, mp.inverse_structure(2).inverse):
        assert (m2.min(), m2.max(), m2[0, 0]) == (-1, -1, -1)
    full = NonzeroMatrix((2, 2), np.arange(4), np.array([1, 2, 3, 4], np.int8))
    assert (full.min(), full.max()) == (1, 4)
    positive = NonzeroMatrix((2, 2), np.array([0, 3]), np.array([1, 2], np.int8))
    assert (positive.min(), positive.max()) == (0, 2)


def test_nonzero_matrix_densifies_on_demand_and_is_read_only():
    m4, inv4 = mp.mandelbrot_matrix(4).entries, mp.inverse_structure(4).inverse
    for held in (m4, inv4):
        dense = np.asarray(held)
        assert dense.dtype == np.int8 and np.array_equal(dense, held.toarray())
        assert np.array(held, dtype=float).dtype == np.float64
        with pytest.raises(ValueError):
            np.asarray(held, copy=False)
        for arr in (held.keys, held.values):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        # the dense array is a fresh copy: changing it leaves the nonzeros alone
        dense[0, 0] = 5
        assert held[0, 0] != 5 and held.toarray()[0, 0] != 5
    # a pencil built from the nonzeros holds the dense array
    p = mp.Pencil(np.eye(7, dtype=np.int64), m4)
    assert p.A.dtype == np.int8 and np.array_equal(p.A, m4.toarray())
    assert mp.pencil_det_at(p, 2) == mp.mandelbrot_poly_at(4, 2)


def test_pencil_det_at_a_numpy_integer_point_is_exact():
    m8 = mp.mandelbrot_matrix(8)
    p = mp.Pencil(np.eye(m8.dim, dtype=np.int64), m8.entries)
    got = mp.pencil_det_at(p, np.int64(3))
    assert type(got) is int and got == mp.pencil_det_at(p, 3) == mp.mandelbrot_poly_at(8, 3)
    assert got > 2 ** 200


def test_pencil_det_at_reads_a_held_pencil_from_its_nonzeros(monkeypatch):
    import tracemalloc
    from matpencil.matpoly import NonzeroMatrix
    m = mp.mandelbrot_matrix(11)
    eye = NonzeroMatrix((m.dim, m.dim), np.arange(m.dim) * (m.dim + 1), np.ones(m.dim, np.int8))
    p = mp.Pencil(eye, m.entries)
    monkeypatch.setattr(NonzeroMatrix, "toarray", lambda self: pytest.fail("made dense"))
    tracemalloc.start()
    try:
        got = [mp.pencil_det_at(p, z) for z in range(-3, 4)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == [mp.mandelbrot_poly_at(11, z) for z in range(-3, 4)]
    assert peak < 2 * 2 ** 20  # a dense object copy of D or A alone takes 8 MiB


def test_pencil_det_at_a_float_point_on_an_exact_pencil_is_exact():
    # the float point is the Fraction it equals; slogdet gave 18.999999999999996
    p = mp.Pencil(np.eye(3, dtype=np.int64), mp.mandelbrot_matrix(3).entries)
    assert mp.pencil_det_at(p, 2.0) == 19 == mp.pencil_det_at(p, 2)
    assert mp.pencil_det_at(p, np.float64(0.5)) == mp.mandelbrot_poly_at(3, Fraction(1, 2))
    # complex, NaN and infinite points still take the float path
    assert mp.pencil_det_at(p, 2 + 0j) == pytest.approx(19)
    with np.errstate(invalid="ignore"):
        assert np.isnan(mp.pencil_det_at(p, float("nan")))


def test_exact_point_is_the_one_rule():
    from matpencil._exact import exact_point
    for z, want in [(3, 3), (2 ** 70, 2 ** 70), (Fraction(1, 3), Fraction(1, 3)),
                    (np.int8(-2), -2), (np.int64(7), 7), (0.5, Fraction(1, 2)),
                    (np.float32(-0.25), Fraction(-1, 4)), (3.0, 3)]:
        got = exact_point(z)
        assert got == want and type(got) in (int, Fraction), z
    assert type(exact_point(np.int64(7))) is int and type(exact_point(3.0)) is Fraction
    for z in (1j, complex(3, 0), np.complex64(2), float("nan"), -np.inf, np.float32("inf")):
        assert exact_point(z) is None, z


def test_mandelbrot_poly_at_a_float_point_is_exact():
    # in float64, p_11(3.0) overflowed to inf and p_n(0.1) rounded
    assert mp.mandelbrot_poly_at(11, 3.0) == mp.mandelbrot_poly_at(11, 3)
    assert mp.mandelbrot_poly_at(4, 0.5) == mp.mandelbrot_poly_at(4, Fraction(1, 2))
    tenth = Fraction(*(0.1).as_integer_ratio())
    assert mp.mandelbrot_poly_at(3, 0.1) == mp.mandelbrot_poly_at(3, tenth)
    assert type(mp.mandelbrot_poly_at(3, 0.1)) is Fraction
    # a complex point is evaluated in floats
    assert mp.mandelbrot_poly_at(3, 1j) == pytest.approx(1j * (1j + 1) ** 2 + 1)


def test_pencil_dets_lays_out_a_diagonal_d_pencil_once_and_takes_bareiss_otherwise(monkeypatch):
    from matpencil import _exact
    m = mp.mandelbrot_matrix(5).entries.toarray()
    d = np.diag(np.arange(1, 16))
    d_upper = d.copy()
    d_upper[3, 4] = 1  # zD - A is no longer -A but for its diagonal
    points = [-1, 0, Fraction(1, 2)]
    # each path checked against the other: Bareiss for Hyman's, Hyman's
    # (zD - A is still unit Hessenberg) for Bareiss
    want = [_exact.bareiss_det((z * d - m).astype(object).tolist()) for z in points]
    want_upper = [matrix_det(z * d_upper - m) for z in points]
    calls = []
    for name in ("unit_hessenberg", "hessenberg_det", "bareiss_det"):
        real = getattr(_exact, name)
        monkeypatch.setattr(_exact, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    assert _exact.pencil_dets(d, m, points) == want
    assert calls == ["unit_hessenberg"] + ["hessenberg_det"] * 3
    calls.clear()
    assert _exact.pencil_dets(d_upper, m, points) == want_upper
    assert calls == ["bareiss_det"] * 3


def test_charpoly_identity_at_wide_and_rational_points(monkeypatch):
    # points whose zI - M does not fit int8 take the exact object path
    points = [-129, -128, 126, 127, 1000, 2 ** 70, Fraction(1, 3)]
    assert mp.charpoly_identity(5, points)
    _plant(monkeypatch, (0, -1), 0)  # drop the top-right glue entry
    for z in [2, *points]:
        assert not mp.charpoly_identity(5, [z])


def test_charpoly_identity_takes_float_points_exactly(monkeypatch):
    # a finite float is the Fraction it equals; in float64 both sides at 3.0
    # overflow to inf and compare equal, and 0.5 compared unequal
    for z in (0.5, np.float64(0.5), np.float32(0.5), -2.0, 3.0, np.float64(3)):
        assert mp.charpoly_identity(11, [z]), z
    _plant(monkeypatch, (0, -1), 0)  # drop the top-right glue entry
    for z in (0.5, 3.0, np.float64(3)):
        assert not mp.charpoly_identity(11, [z]), z


@pytest.mark.parametrize("z", [1j, complex(3, 0), np.complex64(2), float("nan"), float("inf"),
                               -np.inf, np.float32("nan")],
                         ids=["1j", "3+0j", "complex64", "nan", "inf", "-inf", "float32_nan"])
def test_charpoly_identity_rejects_complex_and_non_finite_points(z):
    with pytest.raises(ContractError, match="complex|not finite"):
        mp.charpoly_identity(5, [2, z])


@pytest.mark.parametrize("n", range(10, 15))
def test_charpoly_identity_at_the_benchmark_and_cli_levels(n):
    assert mp.charpoly_identity(n, range(-3, 4))


def test_charpoly_identity_negative_control_at_level_12(monkeypatch):
    _plant(monkeypatch, (0, -1), 0)  # drop the top-right glue entry
    for z in range(-3, 4):
        assert not mp.charpoly_identity(12, [z]), z


def test_charpoly_identity_lays_out_hymans_rows_once_per_call(monkeypatch):
    from matpencil import mandelbrot
    calls = []
    for name in ("unit_hessenberg", "hessenberg_det"):
        real = getattr(mandelbrot, name)
        monkeypatch.setattr(mandelbrot, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    assert mp.charpoly_identity(6, range(-3, 4))
    assert calls == ["unit_hessenberg"] + ["hessenberg_det"] * 7


def test_charpoly_identity_at_numpy_integer_points():
    # p_7(3) is about 1.6e34: in int64 it would wrap around without an error
    assert mp.mandelbrot_poly_at(7, np.int64(3)) == mp.mandelbrot_poly_at(7, 3) > 2 ** 63
    assert mp.charpoly_identity(8, np.arange(-3, 4))
    assert mp.charpoly_identity(5, np.array([-129, 127, 1000], dtype=np.int64))


def test_broken_matrix_fails_the_product_check(monkeypatch, capsys):
    from matpencil import mandelbrot
    from matpencil.cli import main
    _plant(monkeypatch, (1, 0), 0)
    with pytest.raises(VerificationError, match="not the identity"):
        mandelbrot.inverse_structure(6)
    assert main(["mandelbrot", "6"]) == 2
    assert "error: M_6 times its computed inverse" in capsys.readouterr().err


def test_inverse_outside_unit_range_raises_below_the_top_level(monkeypatch):
    from matpencil import mandelbrot
    int8 = np.int8
    assert mandelbrot._height1(np.array([-1, 0, 1], int8))
    assert mandelbrot._height1(np.array([], int8))
    assert not mandelbrot._height1(np.array([0, 2], int8))
    assert not mandelbrot._height1(np.array([-2, 1], int8))
    # report every inverse from M_4's up (more than M_3's 6 nonzeros) as out
    # of range: the top level reads height1 False, a level below it stops the
    # recursion
    monkeypatch.setattr(mandelbrot, "_height1", lambda vals: len(vals) <= 6)
    assert mandelbrot.inverse_structure(3).height1
    assert not mandelbrot.inverse_structure(4).height1
    with pytest.raises(VerificationError, match="M_4"):
        mandelbrot.inverse_structure(5)


def test_recursion_check_sees_a_changed_value(monkeypatch):
    from matpencil import mandelbrot
    real, calls = mandelbrot._next_level, []

    def negate_first(*args):
        # the first call assembles M_3's inverse; its entries keep their
        # places and every value changes sign
        keys, vals = real(*args)
        calls.append(len(keys))
        return (keys, -vals) if len(calls) == 1 else (keys, vals)

    monkeypatch.setattr(mandelbrot, "_next_level", negate_first)
    with pytest.raises(VerificationError, match="inverse recursion broke at level 3"):
        mandelbrot.inverse_structure(4)


def test_fraction_fallback_rejects_a_non_integer_inverse(monkeypatch):
    monkeypatch.setattr(helpers, "fraction_inverse", lambda rows: [[Fraction(1, 2)]])
    with pytest.raises(VerificationError, match="non-integer"):
        inverse_fraction_fallback(2)


# ---------------------------------------------------------------------------
# Hyman's determinant for a +-1 subdiagonal, and the one-buffer inverse
# ---------------------------------------------------------------------------

def _unit_hessenberg(rng, n, diag_kind):
    """Random integer upper Hessenberg rows with a +-1 subdiagonal; the
    diagonal is zero, small, 2**70-sized or Fraction, by diag_kind."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                rows[i][j] = int(rng.integers(-4, 5))
        if i:
            rows[i][i - 1] = int(rng.choice([-1, 1]))
        if diag_kind == "small":
            rows[i][i] = int(rng.integers(-4, 5))
        elif diag_kind == "wide":
            rows[i][i] = 2 ** 70 * int(rng.integers(-2, 3)) + int(rng.integers(-4, 5))
        elif diag_kind == "fraction":
            rows[i][i] = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5)))
    return rows


@pytest.mark.parametrize("diag_kind", ["zero", "small", "wide", "fraction"])
def test_unit_hessenberg_det_matches_both_recurrences(diag_kind, monkeypatch):
    from matpencil import _exact
    from matpencil._exact import hessenberg_det, unit_hessenberg
    # pencil_dets takes Hyman's method here, never Bareiss
    monkeypatch.setattr(_exact, "bareiss_det", None)
    rng = np.random.default_rng(("zero", "small", "wide", "fraction").index(diag_kind))
    for n in range(41):
        for _ in range(3):
            rows = _unit_hessenberg(rng, n, diag_kind)
            want = _dense_hessenberg_det(rows)
            assert matrix_det(rows) == want
            assert hessenberg_det(*_layout(rows)) == want
            # the nonzeros in any order, as numpy integers where they fit
            r, c, v = _nonzeros(rows)
            order = rng.permutation(len(r))
            r, c, v = r[order], c[order], v[order]
            if diag_kind in ("zero", "small"):
                v = v.astype(np.int64)
            assert hessenberg_det(*unit_hessenberg(n, r, c, v)) == want


def test_unit_hessenberg_det_of_numpy_diagonal_is_an_exact_python_int():
    from matpencil._exact import hessenberg_det, unit_hessenberg
    i = np.arange(40)
    vals = np.r_[np.full(40, 7), np.ones(39, dtype=np.int64)]
    got = hessenberg_det(*unit_hessenberg(40, np.r_[i, i[1:]], np.r_[i, i[:-1]], vals))
    assert got == 7 ** 40 and type(got) is int


@pytest.mark.parametrize("bad", [0, 2])
def test_unit_hessenberg_det_rejects_a_non_unit_subdiagonal(bad):
    # no Hyman layout: pencil_dets takes Bareiss
    rows = _unit_hessenberg(np.random.default_rng(5), 6, "small")
    rows[4][3] = bad
    assert _layout(rows) is None
    assert matrix_det(rows) == _dense_hessenberg_det(rows)


def test_unit_hessenberg_det_rejects_misplaced_entries():
    from matpencil._exact import unit_hessenberg
    rows, cols = np.array([0, 1, 2, 1, 2]), np.array([0, 1, 2, 0, 1])
    vals = np.array([1, 2, 3, 1, -1])
    assert unit_hessenberg(3, rows, cols, vals) == ([1, 2, 3], [1, -1], [[], [], []])
    # one subdiagonal entry short; a stored zero there
    assert unit_hessenberg(3, rows[:4], cols[:4], vals[:4]) is None
    assert unit_hessenberg(3, rows, cols, np.r_[vals[:4], 0]) is None
    # an entry below the subdiagonal
    assert unit_hessenberg(3, np.r_[rows, 2], np.r_[cols, 0], np.r_[vals, 5]) is None


@pytest.mark.parametrize("where, value", [((1, 0), 0), ((5, 4), 0), ((5, 4), 2), ((6, 0), -1)],
                         ids=["subdiagonal_0_first", "subdiagonal_0", "subdiagonal_2",
                              "below_subdiagonal"])
def test_charpoly_identity_rejects_a_matrix_off_the_unit_hessenberg_shape(monkeypatch, where,
                                                                          value):
    _plant(monkeypatch, where, value)
    with pytest.raises(VerificationError, match="not upper Hessenberg"):
        mp.charpoly_identity(5, [2])


def test_zero_block_check_sees_one_flipped_entry(monkeypatch):
    from matpencil import mandelbrot
    n = 10
    dim, blk = mandelbrot_dim(n), 1 + mandelbrot_dim(n - 1)
    assert mp.inverse_structure(n).zero_block_ok
    # the product check would reject every changed inverse first
    monkeypatch.setattr(mandelbrot, "_times_is_identity", lambda *args: True)
    inv = mp.inverse_structure(n).inverse.toarray()
    top = dim - blk  # first row of the lower-left block
    inside = [(top, 0), (top, blk - 1), (top + 5, 7), (dim - 1, 0), (dim - 1, blk - 1)]
    outside = [(top - 1, 0), (top, blk), (dim - 1, dim - 1)]
    # a zero made 1 or a nonzero dropped, and a stored value's sign flipped
    stored = [tuple(ij) for ij in np.argwhere(inv[top:, :blk])[[0, -1]] + [top, 0]]
    for (i, j), value, want in ([(ij, None, False) for ij in inside]
                                + [(ij, -inv[ij], False) for ij in stored]
                                + [(ij, None, True) for ij in outside]):
        with monkeypatch.context() as m:
            _inverse_with(m, n, i, j, value)
            assert mp.inverse_structure(n).zero_block_ok is want, (i, j)


@pytest.mark.parametrize("build", ["mandelbrot_matrix", "inverse_structure"])
def test_level_14_is_built_without_a_dense_array(build):
    import tracemalloc
    n = 14
    dim = mandelbrot_dim(n)
    tracemalloc.start()
    try:
        out = getattr(mp, build)(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix = build == "mandelbrot_matrix"
    held = out.entries if matrix else out.inverse
    assert held.shape == (dim, dim) and held[dim - 1, 0] == (0 if matrix else -1)
    assert matrix or (out.zero_block_ok and out.height1)
    # every level, every check and the output are nonzeros: about 68 (M_n)
    # and 280 (inverse) bytes per row, where a dense int8 array takes dim
    assert peak <= 512 * dim


def test_product_check_catches_a_corrupted_inverse_entry(monkeypatch):
    from matpencil import mandelbrot
    n = 11
    dim = mandelbrot_dim(n)
    inv = mp.inverse_structure(n).inverse.toarray()
    stored = tuple(np.argwhere(inv)[len(np.flatnonzero(inv)) // 2])
    cases = [((0, 0), None), ((5, dim - 1), None), ((dim // 2, dim // 2), None),
             ((dim - 1, 0), None), ((dim - 1, dim - 1), None), (stored, -inv[stored])]
    for (i, j), value in cases:
        with monkeypatch.context() as m:
            _inverse_with(m, n, i, j, value)
            with pytest.raises(VerificationError, match="not the identity"):
                mandelbrot.inverse_structure(n)
    # 3 * -85 is 1 modulo 256: a product taken in int8 would wrap onto the identity
    zero, int8 = np.zeros(1, np.int64), np.int8
    assert not mandelbrot._times_is_identity(zero, zero, np.array([3], int8),
                                             zero, np.array([-85], int8), 1)
    keys, vals, _, _ = mandelbrot._inverse_nonzeros(n)
    assert mandelbrot._times_is_identity(*mandelbrot._matrix_nonzeros(n), keys, vals, dim)


@pytest.mark.parametrize("where, value", [((-1, -2), 0), ((0, -1), 0), ((0, -1), 1), ((3, 3), 1)],
                         ids=["dropped_subdiagonal", "dropped_glue", "glue_sign", "planted"])
def test_corrupted_m13_fails_the_product_check(monkeypatch, where, value):
    # dim 4095: far above the 1024 the dense check was capped at
    _plant(monkeypatch, where, value)
    with pytest.raises(VerificationError, match="not the identity"):
        mp.inverse_structure(13)


def test_product_check_needs_no_full_size_temporary(monkeypatch):
    import tracemalloc
    from matpencil import mandelbrot
    n = 13
    dim = mandelbrot_dim(n)
    calls = []
    real = mandelbrot._times_is_identity
    monkeypatch.setattr(mandelbrot, "_times_is_identity",
                        lambda *args: calls.append(args[-1]) or real(*args))
    tracemalloc.start()
    try:
        rep = mp.inverse_structure(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.height1 and calls == [dim]
    assert peak <= 512 * dim  # the check, like the output, is O(dim)


def test_matrix_nonzeros_are_those_of_the_int64_reference():
    from matpencil import mandelbrot
    for n in range(2, 13):
        rows, cols, vals = mandelbrot._matrix_nonzeros(n)
        ref = _int64_matrix_reference(n)
        dim = len(ref)
        assert len(vals) == 2 * dim - 1 and vals.dtype == np.int8 and (vals == -1).all()
        # each nonzero once, in row-major order
        assert np.array_equal(rows * dim + cols, np.flatnonzero(ref))


# sha256 of the little-endian bytes of the keys and values of M_n and of its
# inverse, recorded from the dense-era code (the int64 references above stop
# at n = 12)
DIGESTS = {
    13: ("a938ef4746e234fcebce9c5cd1bafb4c91fda73d6c995550777c6bcb8a69a895",
         "45ad96bb167d65ed2e278d035dc1cde27a240b492530644f6e31edd5379e72e7",
         "ec902a63b4df29fefb8522925abbde7c7aa7528e5edaa75bb57fb42bb28bed2d",
         "0725a572617496f4549d5d3e31526cb0f803e1141ea82da4858af3671fba6954"),
    14: ("dca5b5eefaccaa0a527749e8475d039959022385e9eabeb54b44dd66cb8e8d9a",
         "54c75bb8226d67d24bc07e50955a1a21daf9c2bee270f31bb49e15388418906b",
         "75961042a7b0dbd44191e3257dd99c21c49e7cbdff378a3c37853085d26502ca",
         "edd0ac1aa5c102ff5edca9f4ae207b8976a7f60986f53a7f3510f0b805c5e912"),
}


@pytest.mark.parametrize("n", sorted(DIGESTS))
def test_outputs_at_the_top_levels_keep_their_digests(n):
    import hashlib
    m, rep = mp.mandelbrot_matrix(n).entries, mp.inverse_structure(n)
    arrays = (m.keys.astype("<i8"), m.values, rep.inverse.keys.astype("<i8"), rep.inverse.values)
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == DIGESTS[n]
    assert rep.corner_value == -1 and rep.zero_block_ok and rep.height1


@pytest.mark.parametrize("n", [2, 3, 7])
def test_inverse_structure_sums_once_per_level_and_once_for_the_product(monkeypatch, n):
    from matpencil import mandelbrot
    from matpencil.matpoly import NonzeroMatrix
    real, calls = NonzeroMatrix.summed, []

    def counted(shape, keys, vals):
        calls.append(len(keys))
        return real(shape, keys, vals)

    monkeypatch.setattr(NonzeroMatrix, "summed", staticmethod(counted))
    assert mandelbrot.inverse_structure(n).height1
    assert len(calls) == n - 1  # n - 2 levels, then the check of M_n @ inverse
