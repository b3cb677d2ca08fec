from fractions import Fraction

import numpy as np
import pytest

import matpencil as mp
from matpencil.errors import ContractError, ResourceLimitError, VerificationError
from matpencil.mandelbrot import mandelbrot_dim

import helpers
from helpers import inverse_fraction_fallback


M3 = [[-1, 0, -1], [-1, 0, 0], [0, -1, -1]]
M3_INV = [[0, -1, 0], [1, -1, -1], [-1, 1, 0]]


def test_base_levels():
    assert mp.mandelbrot_matrix(2).entries.tolist() == [[-1]]
    assert mp.mandelbrot_matrix(3).entries.tolist() == M3
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
    from matpencil._exact import hessenberg_det
    m = [row[:] for row in mp.mandelbrot_matrix(4).entries.tolist()]
    m[0][6] = 0  # drop the top-right glue entry
    z = 2
    rows = [[(z if i == j else 0) - m[i][j] for j in range(7)] for i in range(7)]
    assert hessenberg_det(rows) != mp.mandelbrot_poly_at(4, z)


def test_inverse_structure_level3_display():
    rep = mp.inverse_structure(3)
    assert rep.inverse.tolist() == M3_INV
    assert rep.corner_value == -1
    assert rep.first_col.ravel().tolist() == [0, 1, -1]
    assert rep.last_row.ravel().tolist() == [-1, 1, 0]


def test_inverse_structure_level2():
    rep = mp.inverse_structure(2)
    assert rep.inverse.tolist() == [[-1]]
    assert rep.corner_value == -1 and rep.height1 and rep.zero_block_ok


def test_inverse_structure_level6():
    rep = mp.inverse_structure(6)
    assert rep.height1 and rep.corner_value == -1 and rep.zero_block_ok


def test_inverse_matches_fraction_elimination():
    for n in (2, 3, 4, 5):
        assert np.array_equal(mp.inverse_structure(n).inverse, inverse_fraction_fallback(n))


def test_family_is_height1_with_height1_inverse():
    for n in range(2, 11):
        m = mp.mandelbrot_matrix(n)
        assert set(np.unique(m.entries)) <= {-1, 0}
        rep = mp.inverse_structure(n)
        assert set(np.unique(rep.inverse)) <= {-1, 0, 1}
        assert rep.corner_value == -1


def test_block_identities():
    # upper-left and lower-right blocks of the next inverse both equal
    # inv + C R, whose first column and last row vanish
    for n in (3, 4, 5, 6):
        rep = mp.inverse_structure(n)
        nxt = mp.inverse_structure(n + 1)
        d = rep.inverse.shape[0]
        combined = rep.inverse + rep.first_col @ rep.last_row
        assert np.array_equal(nxt.inverse[:d, :d], combined)
        assert np.array_equal(nxt.inverse[d + 1:, d + 1:], combined)
        assert not combined[:, 0].any()
        assert not combined[-1, :].any()
        # recursive column/row shapes
        assert np.array_equal(nxt.first_col,
                              np.vstack([np.zeros((d, 1), dtype=np.int64), [[1]], rep.first_col]))
        assert np.array_equal(nxt.last_row,
                              np.hstack([rep.last_row, [[1]], np.zeros((1, d), dtype=np.int64)]))


def test_matrix_is_upper_hessenberg():
    for n in (3, 4, 5, 6):
        assert mp.is_block_upper_hessenberg(mp.mandelbrot_matrix(n).entries, 1)


def test_level_bounds():
    with pytest.raises(ContractError):
        mp.mandelbrot_matrix(1)
    with pytest.raises(ResourceLimitError):
        mp.mandelbrot_matrix(15)
    with pytest.raises(ResourceLimitError):
        mp.inverse_structure(15)


def test_determinant_is_unimodular():
    from matpencil._exact import exact_det
    for n in (2, 3, 4, 5, 6):
        det = exact_det(mp.mandelbrot_matrix(n).entries.tolist())
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


@pytest.mark.parametrize("fractions", [False, True])
def test_hessenberg_det_matches_dense_recurrence(fractions):
    from matpencil._exact import hessenberg_det
    rng = np.random.default_rng(11 + fractions)
    for n in range(13):
        for _ in range(25):
            rows = _random_hessenberg(rng, n, fractions)
            want = _dense_hessenberg_det(rows)
            assert hessenberg_det(rows) == want
            assert hessenberg_det(np.array(rows, dtype=object).reshape(n, n)) == want
            if not fractions:
                got = hessenberg_det(np.array(rows, dtype=np.int64).reshape(n, n))
                assert got == want and type(got) is int


def test_hessenberg_det_of_numpy_integers_is_an_exact_python_int():
    from matpencil._exact import hessenberg_det
    for dtype in (np.int8, np.int64):
        got = hessenberg_det(np.diag(np.full(40, 7, dtype=dtype)))
        assert got == 7 ** 40 > 2 ** 63 and type(got) is int
    # numpy scalars inside an object array are widened too
    rows = np.empty((40, 40), dtype=object)
    rows[:] = np.int64(0)
    for i in range(40):
        rows[i, i] = np.int64(7)
        if i:
            rows[i, i - 1] = np.int64(1)
    assert hessenberg_det(rows) == 7 ** 40


def test_matrix_and_inverse_equal_int64_recursions():
    for n in range(2, 13):
        m = mp.mandelbrot_matrix(n)
        assert m.entries.dtype == np.int8
        assert np.array_equal(m.entries, _int64_matrix_reference(n))
        rep = mp.inverse_structure(n)
        ref = _int64_inverse_reference(n)
        assert rep.inverse.dtype == rep.first_col.dtype == rep.last_row.dtype == np.int8
        assert rep.inverse.flags.c_contiguous
        assert np.array_equal(rep.inverse, ref)
        assert np.array_equal(rep.first_col, ref[:, :1])
        assert np.array_equal(rep.last_row, ref[-1:, :])


def test_charpoly_identity_at_wide_and_rational_points(monkeypatch):
    from matpencil import mandelbrot
    # points whose zI - M does not fit int8 take the exact object path
    points = [-129, -128, 126, 127, 1000, 2 ** 70, Fraction(1, 3)]
    assert mp.charpoly_identity(5, points)
    real = mandelbrot.mandelbrot_matrix

    def no_glue(n):
        m = real(n)
        m.entries[0, m.dim - 1] = 0  # drop the top-right glue entry
        return m

    monkeypatch.setattr(mandelbrot, "mandelbrot_matrix", no_glue)
    for z in [2, *points]:
        assert not mp.charpoly_identity(5, [z])


def test_charpoly_identity_at_numpy_integer_points():
    # p_7(3) is about 1.6e34: in int64 it would wrap around without an error
    assert mp.mandelbrot_poly_at(7, np.int64(3)) == mp.mandelbrot_poly_at(7, 3) > 2 ** 63
    assert mp.charpoly_identity(8, np.arange(-3, 4))
    assert mp.charpoly_identity(5, np.array([-129, 127, 1000], dtype=np.int64))


def test_broken_matrix_fails_the_product_check(monkeypatch, capsys):
    from matpencil import mandelbrot
    from matpencil.cli import main
    real = mandelbrot.mandelbrot_matrix

    def flipped(n):
        m = real(n)
        m.entries[1, 0] = 0
        return m

    monkeypatch.setattr(mandelbrot, "mandelbrot_matrix", flipped)
    with pytest.raises(VerificationError, match="not the identity"):
        mandelbrot.inverse_structure(6)
    assert main(["mandelbrot", "6"]) == 2
    assert "error: M_6 times its computed inverse" in capsys.readouterr().err


def test_inverse_outside_unit_range_raises_below_the_top_level(monkeypatch):
    from matpencil import mandelbrot
    # report every square block from 3 x 3 up as out of range: the top
    # level reads height1 False, a level below it stops the recursion
    monkeypatch.setattr(mandelbrot, "_in_unit_range", lambda a: min(a.shape) < 3)
    assert mandelbrot.inverse_structure(3).height1
    assert not mandelbrot.inverse_structure(4).height1
    with pytest.raises(VerificationError, match="M_4"):
        mandelbrot.inverse_structure(5)


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


def _split(rows):
    """(diag, sub, upper) of an upper Hessenberg matrix given as rows."""
    n = len(rows)
    return ([rows[i][i] for i in range(n)], [rows[i][i - 1] for i in range(1, n)],
            [(i, j, rows[i][j]) for i in range(n) for j in range(i + 1, n) if rows[i][j]])


@pytest.mark.parametrize("diag_kind", ["zero", "small", "wide", "fraction"])
def test_unit_hessenberg_det_matches_both_recurrences(diag_kind):
    from matpencil._exact import hessenberg_det, unit_hessenberg_det
    rng = np.random.default_rng(("zero", "small", "wide", "fraction").index(diag_kind))
    for n in range(41):
        for _ in range(3):
            rows = _unit_hessenberg(rng, n, diag_kind)
            want = _dense_hessenberg_det(rows)
            assert hessenberg_det(rows) == want
            diag, sub, upper = _split(rows)
            assert unit_hessenberg_det(diag, sub, upper) == want
            # any order of the upper entries, numpy integers anywhere but the diagonal
            shuffled = [upper[k] for k in rng.permutation(len(upper))]
            assert unit_hessenberg_det(diag, np.array(sub, dtype=np.int8),
                                       [(i, j, np.int64(v)) for i, j, v in shuffled]) == want


def test_unit_hessenberg_det_of_numpy_diagonal_is_an_exact_python_int():
    from matpencil._exact import unit_hessenberg_det
    got = unit_hessenberg_det(np.full(40, 7, dtype=np.int64), [1] * 39, [])
    assert got == 7 ** 40 and type(got) is int


@pytest.mark.parametrize("bad", [0, 2])
def test_unit_hessenberg_det_rejects_a_non_unit_subdiagonal(bad):
    from matpencil._exact import unit_hessenberg_det
    rows = _unit_hessenberg(np.random.default_rng(5), 6, "small")
    diag, sub, upper = _split(rows)
    sub[3] = bad
    with pytest.raises(ContractError, match="subdiagonal"):
        unit_hessenberg_det(diag, sub, upper)


def test_unit_hessenberg_det_rejects_misplaced_entries():
    from matpencil._exact import unit_hessenberg_det
    with pytest.raises(ContractError, match="subdiagonal"):
        unit_hessenberg_det([1, 2, 3], [1], [])  # one subdiagonal entry short
    for bad in [(1, 1, 5), (2, 0, 5), (0, 3, 5)]:  # diagonal, below, outside
        with pytest.raises(ContractError, match="not strictly upper"):
            unit_hessenberg_det([1, 2, 3], [1, -1], [bad])


@pytest.mark.parametrize("where, value", [((1, 0), 0), ((5, 4), 0), ((5, 4), 2), ((6, 0), -1)],
                         ids=["subdiagonal_0_first", "subdiagonal_0", "subdiagonal_2",
                              "below_subdiagonal"])
def test_charpoly_identity_rejects_a_matrix_off_the_unit_hessenberg_shape(monkeypatch, where,
                                                                          value):
    from matpencil import mandelbrot
    real = mandelbrot.mandelbrot_matrix

    def broken(n):
        m = real(n)
        m.entries[where] = value
        return m

    monkeypatch.setattr(mandelbrot, "mandelbrot_matrix", broken)
    with pytest.raises(VerificationError, match="not upper Hessenberg"):
        mp.charpoly_identity(5, [2])


def test_zero_block_compare_sees_one_flipped_entry_in_any_chunk():
    from matpencil import mandelbrot
    n = 10
    rep = mp.inverse_structure(n)
    dim, blk = mandelbrot_dim(n), 1 + mandelbrot_dim(n - 1)
    assert blk > 2 * mandelbrot._CHUNK_ROWS  # the block spans several chunks
    col, row = rep.first_col[dim - blk:], rep.last_row[:, :blk]
    block = rep.inverse[dim - blk:, :blk]
    assert mandelbrot._equals_minus_cr(block, col, row)
    for i, j in [(0, 7), (blk - 1, blk - 3)]:  # first chunk, last chunk
        flipped = block.copy()
        flipped[i, j] = 1 - flipped[i, j]
        assert not mandelbrot._equals_minus_cr(flipped, col, row)


def test_inverse_is_built_in_one_buffer():
    import tracemalloc
    n = 12  # above the product check's dimension cap, which allocates int64 copies
    dim = mandelbrot_dim(n)
    tracemalloc.start()
    try:
        rep = mp.inverse_structure(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.zero_block_ok and rep.height1
    assert peak <= 1.25 * dim ** 2
