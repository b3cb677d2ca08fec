"""Property tests of the five composition rules on small integer inputs.

Each drawn instance is non-monic with r, s <= 2.  The composed float64
pencil must be integral; cast to int64, its determinant is certified equal
to det p(z) exactly at N + 1 integer points (two polynomials of degree <= N
that agree there are equal), and the triple's resolvent is checked by
verify_triple at its default tolerance.  Hypothesis runs derandomized and
without an example database, so the suite stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import matpencil as mp

from helpers import composite_coeffs, mono_add, mono_mul, shift_left_coeffs, shift_right_coeffs


def _ints(n, r):
    """n integer r x r matrices, entries in -3..3."""
    return st.lists(st.integers(-3, 3), min_size=n * r * r, max_size=n * r * r).map(
        lambda v: np.array(v, dtype=np.int64).reshape(n, r, r))


@st.composite
def _instances(draw):
    r = draw(st.integers(1, 2))
    sa, sb = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    a, b = draw(_ints(sa + 1, r)), draw(_ints(sb + 1, r))
    assume(not np.array_equal(a[-1], np.eye(r)) and not np.array_equal(b[-1], np.eye(r)))
    c = draw(_ints(draw(st.integers(1, sa)), r))  # deg c < deg a
    d0, c0 = draw(_ints(2, r))
    variant = draw(st.sampled_from(["F1", "F2"]))
    return a, b, c, d0, c0, variant


def _exact_at(coeffs, z):
    """sum_k coeffs[k] z^k in Python integers."""
    acc = np.zeros(coeffs.shape[1:], dtype=object)
    for coeff in coeffs[::-1]:
        acc = acc * z + coeff.astype(object)
    return acc


def _det(m):
    """Determinant of a 1 x 1 or 2 x 2 integer matrix, by formula."""
    return m[0, 0] if m.shape == (1, 1) else m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _apply(rule, a, b, c, d0, c0, variant):
    """(triple, float coefficients of p, exact p(z) for an integer z)."""
    ta = mp.frobenius_triple(mp.MatPoly.monomial_poly(a))
    tb = mp.frobenius_triple(mp.MatPoly.monomial_poly(b))
    if rule == "shift_left":
        return (mp.scalar_shift_left(ta, d0, c0), shift_left_coeffs(a, d0, c0),
                lambda z: z * d0.astype(object) @ _exact_at(a, z) + c0.astype(object))
    if rule == "shift_right":
        return (mp.scalar_shift_right(ta, d0, c0), shift_right_coeffs(a, d0, c0),
                lambda z: z * _exact_at(a, z) @ d0.astype(object) + c0.astype(object))
    if rule == "product":
        return (mp.product(ta, tb, variant), mono_mul(a, b),
                lambda z: _exact_at(a, z) @ _exact_at(b, z))
    if rule == "add_lower_degree":
        return (mp.add_lower_degree(ta, mp.MatPoly.monomial_poly(c)), mono_add(a, c),
                lambda z: _exact_at(a, z) + _exact_at(c, z))
    return (mp.composite(ta, tb, d0, c0), composite_coeffs(a, d0, b, c0),
            lambda z: (z * _exact_at(a, z) @ d0.astype(object) @ _exact_at(b, z)
                    + c0.astype(object)))


@pytest.mark.parametrize("rule", ["shift_left", "shift_right", "product", "add_lower_degree",
                                  "composite"])
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(inst=_instances())
def test_composition_rule_on_integer_inputs(rule, inst):
    t, coeffs, p_at = _apply(rule, *inst)
    want = [_det(p_at(z)) for z in range(t.N + 1)]
    assume(any(want))  # det p(z) is not identically zero

    D, A = t.pencil.D, t.pencil.A
    assert D.dtype == A.dtype == np.float64
    assert np.array_equal(D, np.round(D)) and np.array_equal(A, np.round(A))
    assert np.abs(D).max() < 2 ** 53 and np.abs(A).max() < 2 ** 53
    exact = mp.Pencil(D.astype(np.int64), A.astype(np.int64))
    got = [mp.pencil_det_at(exact, z) for z in range(t.N + 1)]
    assert all(isinstance(v, int) for v in got)
    assert got == want

    assert mp.verify_triple(t, mp.MatPoly.monomial_poly(coeffs), rng=0).passed
