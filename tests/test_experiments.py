import numpy as np
import pytest

import matpencil as mp
from matpencil import experiments, fixtures
from matpencil.errors import ContractError


def test_fixture_shapes_and_structure():
    assert len(fixtures.FAMILY_CONSTANTS) == 12
    for c in fixtures.FAMILY_CONSTANTS:
        assert c.shape == (4, 4)
        assert np.all(np.diag(c) == 0)
        assert np.all(np.diag(c, -1) == -1)
        assert mp.is_block_upper_hessenberg(c, 1)
        assert abs(np.linalg.det(c)) > 1e-9  # nonsingular, per the family's rules


def test_fixture_checksums():
    # guard the embedded data against silent edits
    assert fixtures.checksum(fixtures.FAMILY_CONSTANTS) == \
        "155dfb4fdcd5361e04f12e59239555ddaa94bedec031dab998402b55492096cb"
    assert fixtures.checksum(fixtures.QUINTIC_A) == \
        "3d213fb406506baec1d1a9b53efd6f4c02058ef9391ab9dae0f891425c986d70"
    assert fixtures.checksum([fixtures.QUINTIC_B0]) == \
        "b0372e7e4ce9746d5dc5d9effca1c89e894a5ca7046c3d008c89d9966d092569"
    assert fixtures.checksum(fixtures.MIXED_SAMPLES) == \
        "165656a68f9cc5f155acb2fc18d82c89064ca6869f0fbe5e39d6337cc2b5044f"
    assert fixtures.checksum(fixtures.MIXED_CHEB) == \
        "42c457294468a1433dce8f783cc0df0190f98752ae698e70b461d31565d3974c"
    assert fixtures.checksum([fixtures.MIXED_NODES, fixtures.MIXED_WEIGHTS]) == \
        "17059cfb6a1edb222bf48c8b842bfc1e32d8ec15abb5760a1056b1f9a350387c"


def test_fixture_sample_entries_spot_checks():
    assert fixtures.FAMILY_CONSTANTS[0][0].tolist() == [0, -1, -1, -1]
    assert fixtures.FAMILY_CONSTANTS[6][2].tolist() == [0, -1, 0, -1]
    assert fixtures.QUINTIC_A[0][0][0] == -81 and fixtures.QUINTIC_A[3][4][3] == 88
    assert fixtures.QUINTIC_B0[2][4] == -91
    assert fixtures.MIXED_SAMPLES[1][0].tolist() == [-0.875, -0.5, -1.25]
    assert fixtures.MIXED_CHEB[3].tolist() == np.eye(3).tolist()


def test_quintic_b_choice_cancels_top_product_coefficients():
    from matpencil._compose import mono_mul
    a = np.stack(fixtures.QUINTIC_A)
    b = np.stack(fixtures.quintic_b_coeffs())
    ab = mono_mul(a, b)
    scale = max(np.abs(ab[k]).max() for k in range(7))
    assert np.abs(ab[6] - np.eye(5)).max() <= 1e-12 * scale
    assert np.abs(ab[5]).max() <= 1e-9 * scale
    assert np.abs(ab[4]).max() <= 1e-9 * scale


def test_family_dimensions_and_grades():
    reports = experiments.run_family(4, rng=0)
    assert [r.dim for r in reports] == [4 * (2 ** k - 1) for k in range(1, 5)]
    assert all(r.n_finite + r.n_infinite == r.dim for r in reports)
    assert all(r.pencil_height == 1.0 for r in reports)


def test_family_eval_matches_triple_determinant():
    t = experiments.family_triple(3)[-1]
    for z in (0.4, -0.9, 1.1 + 0.6j):
        want = np.linalg.det(fixtures.family_eval(3, z))
        assert mp.pencil_det_at(t.pencil, z) == pytest.approx(want, rel=1e-9)


def test_family_cap():
    with pytest.raises(ContractError):
        experiments.run_family(9)


def test_quintic_counts():
    rep = experiments.run_random_quintic(rng=0)
    assert rep.algebraic_counts == (35, 0)
    assert rep.frobenius_counts == (35, 0)
    assert rep.ratio > 1.0


def test_quintic_solves_both_pencils_in_real_arithmetic(monkeypatch):
    # the glued pencil and the expanded companion are both float64, so the
    # comparison runs both through real QZ
    seen = []
    solve = experiments.generalized_eigen

    def spy(p, **kwargs):
        seen.append((p.D.dtype, p.A.dtype, kwargs.get("backend")))
        return solve(p, **kwargs)

    monkeypatch.setattr(experiments, "generalized_eigen", spy)
    experiments.run_random_quintic(rng=0)
    assert seen == [(np.float64, np.float64, "qz")] * 2


def test_mixed_report_structure():
    rep = experiments.run_mixed_basis(rng=0)
    assert rep.dim == 27 and rep.blocks == [15, 3, 9]
    assert rep.n_finite == rep.oracle_degree == 21
    assert rep.n_infinite == 6 >= 3
    assert "c0" in rep.c0_note
