"""Coefficient-level composition helpers for monomial matrix polynomials.

Internal support for the constructions, the experiment drivers and the test
suite; matrix coefficient lists are ndarrays of shape (deg+1, r, r),
low-to-high.  Outputs follow `matpoly._common`: float64 for real or integer
inputs, complex128 once any input is complex.
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


def mono_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = _common(a, b)
    if a.shape[0] < b.shape[0]:
        a, b = b, a
    out = a.copy()
    out[: b.shape[0]] += b
    return out


def _times_z_plus(prod: np.ndarray, c0) -> np.ndarray:
    """z * prod(z) + c0."""
    prod, c0 = _common(prod, c0)
    out = np.zeros((prod.shape[0] + 1,) + prod.shape[1:], dtype=prod.dtype)
    out[1:] = prod
    out[0] += c0
    return out


def shift_left_coeffs(a: np.ndarray, d0, c0) -> np.ndarray:
    """z * d0 * a(z) + c0."""
    a, d0 = _common(a, d0)
    return _times_z_plus(d0 @ a, c0)


def shift_right_coeffs(a: np.ndarray, d0, c0) -> np.ndarray:
    """z * a(z) * d0 + c0."""
    a, d0 = _common(a, d0)
    return _times_z_plus(a @ d0, c0)


def composite_coeffs(a: np.ndarray, d0, b: np.ndarray, c0) -> np.ndarray:
    """z * a(z) * d0 * b(z) + c0."""
    a, d0 = _common(a, d0)
    return _times_z_plus(mono_mul(a @ d0, b), c0)
