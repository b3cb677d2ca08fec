"""Embedded exact fixture data for the three experiment drivers.

The twelve 4x4 recursion constants, the 5x5 cubic pair for the quintic-style
comparison, and the Lagrange/Chebyshev data for the mixed-basis run.  All
entries are exact (integers, binary fractions) and are guarded by checksum
tests; do not edit by hand.
"""

from __future__ import annotations

import numpy as np

from .matpoly import MatPoly

# Upper Hessenberg, zero diagonal, -1 subdiagonal; all nonsingular.
FAMILY_CONSTANTS = [np.array(m, dtype=float) for m in [
    [[0, -1, -1, -1], [-1, 0, 0, 1], [0, -1, 0, 1], [0, 0, -1, 0]],
    [[0, -1, -1, -1], [-1, 0, 1, 1], [0, -1, 0, 0], [0, 0, -1, 0]],
    [[0, -1, -1, -1], [-1, 0, 0, 0], [0, -1, 0, 1], [0, 0, -1, 0]],
    [[0, -1, -1, -1], [-1, 0, 1, 0], [0, -1, 0, 0], [0, 0, -1, 0]],
    [[0, -1, -1, -1], [-1, 0, 0, -1], [0, -1, 0, 1], [0, 0, -1, 0]],
    [[0, -1, -1, -1], [-1, 0, 1, -1], [0, -1, 0, 0], [0, 0, -1, 0]],
    [[0, -1, -1, 0], [-1, 0, -1, 1], [0, -1, 0, -1], [0, 0, -1, 0]],
    [[0, -1, -1, -1], [-1, 0, -1, 1], [0, -1, 0, 0], [0, 0, -1, 0]],
    [[0, -1, -1, 0], [-1, 0, 0, 1], [0, -1, 0, -1], [0, 0, -1, 0]],
    [[0, -1, -1, -1], [-1, 0, -1, 1], [0, -1, 0, 1], [0, 0, -1, 0]],
    [[0, -1, -1, -1], [-1, 0, 0, 1], [0, -1, 0, 0], [0, 0, -1, 0]],
    [[0, -1, -1, 0], [-1, 0, 1, 1], [0, -1, 0, -1], [0, 0, -1, 0]],
]]

# 5x5 integer cubic a(z) = sum z^k A_k for the linearization comparison.
QUINTIC_A = [np.array(m, dtype=float) for m in [
    [[-81, -98, -76, -4, 29],
     [-38, -77, -72, 27, 44],
     [-18, 57, -2, 8, 92],
     [87, 27, -32, 69, -31],
     [33, -93, -74, 99, 67]],
    [[76, 20, 31, 94, -16],
     [-44, -61, -50, 12, -9],
     [24, -48, -80, -2, -50],
     [65, 77, 43, 50, -22],
     [86, 9, 25, 10, 45]],
    [[70, 82, 12, 22, 60],
     [-32, 72, -62, 14, -95],
     [-1, 42, -33, 16, -20],
     [52, 18, -68, 9, -25],
     [-13, -59, -67, 99, 51]],
    [[-38, -63, 12, 21, -82],
     [91, -26, 45, 90, -70],
     [-1, 30, -14, 80, 41],
     [63, 10, 60, 19, 91],
     [-23, 22, -35, 88, 29]],
]]

QUINTIC_B0 = np.array(
    [[-15, 10, -83, 10, -4],
     [2, -44, 9, -61, 5],
     [-88, 26, 88, -26, -91],
     [99, -3, 95, -20, -44],
     [-59, -62, 63, -78, -38]], dtype=float)


def quintic_b_coeffs() -> list:
    """B_0 fixed, B_3 = A_3^-1, B_2 and B_1 chosen so a(z) b(z) loses its top
    two interior coefficients.  Computed numerically, as the rounding this
    introduces is part of what the comparison measures."""
    a1, a2, a3 = QUINTIC_A[1], QUINTIC_A[2], QUINTIC_A[3]
    a3inv = np.linalg.inv(a3)
    b3 = a3inv
    b2 = -a3inv @ a2 @ b3
    b1 = -a3inv @ (a1 @ b3 + a2 @ b2)
    return [QUINTIC_B0.copy(), b1, b2, b3]


MIXED_NODES = np.array([-1.0, -0.5, 0.5, 1.0])
MIXED_WEIGHTS = np.array([-2.0 / 3.0, 4.0 / 3.0, -4.0 / 3.0, 2.0 / 3.0])

MIXED_SAMPLES = [np.array(m, dtype=float) for m in [
    [[-2, -1, -1], [-1, -1, 1], [0, -1, -1]],
    [[-0.875, -0.5, -1.25], [-0.75, -0.125, 0.5], [0, -0.75, -0.875]],
    [[-1.625, 0.5, -0.25], [-1.75, 0.125, -0.5], [0, -1.75, -0.625]],
    [[-2, 1, 1], [-3, 1, -1], [0, -3, 1]],
]]

MIXED_CHEB = [np.array(m, dtype=float) for m in [
    [[0, -1, 0], [1, -1, -1], [-1, 1, 0]],
    [[0, 1, 0], [-1, -1, 1], [0, -1, -1]],
    [[1, -1, 0], [-1, -1, -1], [0, -1, 0]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
]]


def family_constant(k: int) -> np.ndarray:
    """The recursion constant used at step k (cycled when k runs past twelve)."""
    return FAMILY_CONSTANTS[k % len(FAMILY_CONSTANTS)].copy()


def family_eval(k: int, z) -> np.ndarray:
    """Evaluate the level-k family member h_k at z through the recurrence.

    h_1 = z I + c_0, h_{j+1} = z h_j^2 + c_j, in the points' dtype (at least
    float64; mpmath points give object).  A scalar z gives one 4x4 matrix; an
    array of points gives the stack of shape z.shape + (4, 4).  Direct
    recurrence evaluation avoids the huge expanded coefficients, so residuals
    stay meaningful.
    """
    zz = np.asarray(z)[..., None, None]
    h = zz * np.eye(4) + family_constant(0)
    for j in range(1, k):
        h = zz * (h @ h) + family_constant(j)
    return h


def mixed_lagrange_poly() -> MatPoly:
    return MatPoly.lagrange_poly(MIXED_NODES, MIXED_WEIGHTS, MIXED_SAMPLES)


def mixed_chebyshev_poly() -> MatPoly:
    return MatPoly.chebyshev_poly(MIXED_CHEB)
