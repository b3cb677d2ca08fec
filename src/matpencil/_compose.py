"""Coefficient-level composition helpers for monomial matrix polynomials.

Internal support for the quintic experiment and the test suite;
matrix coefficient lists are ndarrays of shape (deg+1, r, r), low-to-high.
Outputs follow `matpoly._common`: float64 for real or integer inputs,
complex128 once any input is complex.
"""

from __future__ import annotations

import numpy as np

from .matpoly import _common


def mono_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of a(z) b(z); order matters, the factors are matrices."""
    a, b = _common(a, b)
    out = np.zeros((a.shape[0] + b.shape[0] - 1,) + a.shape[1:], dtype=a.dtype)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai @ bj
    return out


def composite_coeffs(a: np.ndarray, d0, b: np.ndarray, c0) -> np.ndarray:
    """z * a(z) * d0 * b(z) + c0."""
    a, d0 = _common(a, d0)
    prod, c0 = _common(mono_mul(a @ d0, b), c0)
    out = np.zeros((prod.shape[0] + 1,) + prod.shape[1:], dtype=prod.dtype)
    out[1:] = prod
    out[0] += c0
    return out
