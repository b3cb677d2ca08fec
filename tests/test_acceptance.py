"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line (run with `pytest -v -s tests/test_acceptance.py`)."""

import time
from pathlib import Path

import numpy as np
import pytest

import matpencil as mp
from matpencil import experiments, fixtures
from matpencil.cli import main as cli_main
from matpencil.mandelbrot import mandelbrot_dim

from helpers import (composite_coeffs, mono_add, mono_mul, rand_chebyshev,
                     rand_lagrange, rand_mat, rand_mono, shift_left_coeffs,
                     shift_right_coeffs)


def report(idx, label, ok):
    print(f"ACCEPTANCE {idx} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {idx}: {label}"


def test_criterion_1_mandelbrot_exactness():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 11):
        m = mp.mandelbrot_matrix(n)
        ok &= m.dim == 2 ** (n - 1) - 1
        ok &= set(np.unique(m.entries.toarray())) <= {-1, 0}
        rep = mp.inverse_structure(n)  # raises unless M_n @ inverse == I exactly
        ok &= set(np.unique(rep.inverse.toarray())) <= {-1, 0, 1}
        ok &= rep.corner_value == -1
        ok &= rep.zero_block_ok and rep.height1
        if n < 10:
            nxt = mp.inverse_structure(n + 1)
            d = m.dim
            combined = rep.inverse.toarray() + rep.first_col @ rep.last_row
            ok &= np.array_equal(nxt.inverse.toarray()[:d, :d], combined)          # upper left
            ok &= np.array_equal(nxt.inverse.toarray()[d + 1:, d + 1:], combined)  # lower right
            ok &= not combined[:, 0].any() and not combined[-1, :].any()
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 60.0
    report(1, f"exact integer family levels 2..10 in {elapsed:.1f}s", ok)


def test_criterion_2_charpoly_identity():
    ok = all(mp.charpoly_identity(n, range(-3, 4)) for n in range(2, 10))
    report(2, "char poly equals the recurrence at -3..3, levels 2..9, exactly", ok)


def _closure_cases(rng, count):
    """Yield (constructor name, triple, polynomial) for randomized instances."""
    for i in range(count):
        r = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        monic = bool(rng.integers(2))

        a = rand_mono(rng, r, s, monic=monic)
        ta = mp.frobenius_triple(a)
        yield "companion", ta, a

        d0, c0 = rand_mat(rng, r), rand_mat(rng, r)
        yield ("shift_left", mp.scalar_shift_left(ta, d0, c0),
               mp.MatPoly.monomial_poly(shift_left_coeffs(a.data, d0, c0)))
        yield ("shift_right", mp.scalar_shift_right(ta, d0, c0),
               mp.MatPoly.monomial_poly(shift_right_coeffs(a.data, d0, c0)))

        t = int(rng.integers(1, 4))
        b = rand_mono(rng, r, t, monic=bool(rng.integers(2)))
        tb = mp.frobenius_triple(b)
        variant = "F1" if i % 2 == 0 else "F2"
        yield (f"product", mp.product(ta, tb, variant),
               mp.MatPoly.monomial_poly(mono_mul(a.data, b.data)))

        if s >= 1:
            c = rand_mono(rng, r, int(rng.integers(0, s)))
            yield ("add_lower_degree", mp.add_lower_degree(ta, c),
                   mp.MatPoly.monomial_poly(mono_add(a.data, c.data)))

        yield ("composite", mp.composite(ta, tb, d0, c0),
               mp.MatPoly.monomial_poly(composite_coeffs(a.data, d0, b.data, c0)))

        lag = rand_lagrange(rng, r, s)
        yield "lagrange", mp.lagrange_triple(lag), lag

        cheb = rand_chebyshev(rng, r, s)
        yield "chebyshev", mp.chebyshev_triple(cheb), cheb


def test_criterion_3_construction_closure():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    counts = {}
    failures = []
    for name, triple, poly in _closure_cases(rng, 200):
        counts[name] = counts.get(name, 0) + 1
        eq = mp.det_equality(triple.pencil, poly, tol=1e-8)
        if not eq.ok:
            failures.append((name, "det", eq.max_deviation))
            continue
        rep = mp.verify_triple(triple, poly, n_points=5, tol=1e-8, rng=rng)
        if not (rep.resolvent_deviation is not None and rep.resolvent_deviation <= 1e-8):
            failures.append((name, "resolvent", rep.resolvent_deviation))
    elapsed = time.perf_counter() - t0
    ok = not failures and all(v >= 200 for v in counts.values()) and elapsed <= 300
    if failures:
        print("closure failures:", failures[:10])
    report(3, f"{sum(counts.values())} randomized instances over {len(counts)} "
              f"constructors in {elapsed:.1f}s", ok)


def test_criterion_4_cross_construction_regression():
    t = mp.frobenius_triple(mp.MatPoly.monomial_poly([1.0, 1.0]))
    ok = True
    for n in (3, 4, 5):
        t = mp.composite(t, t, [[1.0]], [[1.0]])
        m = mp.mandelbrot_matrix(n)
        ok &= np.array_equal(t.pencil.A, m.entries.toarray().astype(complex))
        ok &= np.array_equal(t.pencil.D, np.eye(m.dim, dtype=complex))
        ok &= np.array_equal(t.X, m.triple_X.astype(complex))
        ok &= np.array_equal(t.Y, m.triple_Y.astype(complex))
    report(4, "glued construction reproduces the integer family bitwise (levels 3..5)", ok)


def test_criterion_5_family_experiment():
    t0 = time.perf_counter()
    reports = experiments.run_family(6, rng=np.random.default_rng(0))
    by_k = {r.k: r for r in reports}
    ok = by_k[5].dim == 124 and by_k[6].dim == 252
    worst = max(by_k[5].max_residual, by_k[6].max_residual)
    ok &= worst <= 1e-10
    ok &= by_k[6].solve_seconds <= 60.0
    report(5, f"family dims 124/252, max residual {worst:.2e}, "
              f"k=6 solve {by_k[6].solve_seconds:.2f}s "
              f"(total {time.perf_counter() - t0:.1f}s)", ok)


def test_criterion_6_quintic_comparison():
    rep = experiments.run_random_quintic()
    ok = rep.algebraic_max_residual <= 1e-9
    ok &= rep.algebraic_max_residual <= rep.frobenius_max_residual
    report(6, f"glued residual {rep.algebraic_max_residual:.2e} <= 1e-9 and <= "
              f"expanded companion {rep.frobenius_max_residual:.2e}", ok)


def test_criterion_7_mixed_basis_experiment():
    rep = experiments.run_mixed_basis(rng=np.random.default_rng(0))
    ok = rep.max_forward_error <= 1e-10
    ok &= rep.n_finite + rep.n_infinite == rep.dim
    ok &= rep.n_finite == rep.oracle_degree          # finite count = det degree
    ok &= rep.n_infinite == rep.dim - rep.oracle_degree >= 3
    report(7, f"mixed-basis forward error {rep.max_forward_error:.2e}, "
              f"{rep.n_infinite} infinite eigenvalues separated", ok)


def test_criterion_8_solver_properties():
    rng = np.random.default_rng(77)
    ok = True
    worst_gap = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 41))
        pencil = mp.Pencil(rand_mat(rng, n), rand_mat(rng, n))
        a = mp.generalized_eigen(pencil, rng=np.random.default_rng(rng.integers(1 << 30)))
        b = mp.generalized_eigen(pencil, rng=np.random.default_rng(rng.integers(1 << 30)))
        gap = mp.match_roots(a.finite, b.finite).max_error
        worst_gap = max(worst_gap, gap)
        ok &= gap <= 1e-8 and a.total == b.total == n
    worst_cheb = 0.0
    for n in range(1, 9):
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        t = mp.chebyshev_triple(mp.MatPoly.chebyshev_poly(coeffs))
        eig = mp.generalized_eigen(t.pencil, rng=rng)
        want = np.cos((2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n))
        worst_cheb = max(worst_cheb, mp.match_roots(eig.finite, want).max_error)
    ok &= worst_cheb <= 1e-10
    report(8, f"shift invariance gap {worst_gap:.2e}; colleague roots vs "
              f"cosine formula {worst_cheb:.2e}", ok)


def test_criterion_9_determinism(tmp_path, capsys):
    outs = []
    for run in ("one", "two"):
        d = tmp_path / run
        code = cli_main(["--seed", "7", "--emit", "csv", "--emit", "json", "--emit", "svg",
                         "--out", str(d), "family", "--kmax", "4"])
        assert code == 0
        code = cli_main(["--seed", "7", "--emit", "csv", "--emit", "json",
                         "--out", str(d), "mixed"])
        assert code == 0
        outs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
    capsys.readouterr()
    ok = outs[0].keys() == outs[1].keys() and len(outs[0]) >= 6
    for name in outs[0]:
        ok &= outs[0][name] == outs[1][name]
    report(9, f"{len(outs[0])} artifact files byte-identical across same-seed runs", ok)
