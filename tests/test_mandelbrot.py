import numpy as np
import pytest

import matpencil as mp
from matpencil.errors import ContractError, ResourceLimitError
from matpencil.mandelbrot import inverse_fraction_fallback, mandelbrot_dim


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
