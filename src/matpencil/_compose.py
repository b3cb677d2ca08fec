"""Coefficient-level composition helpers for monomial matrix polynomials.

Internal support for the constructions, the experiment drivers and the test
suite; matrix coefficient lists are ndarrays of shape (deg+1, r, r),
low-to-high.
"""

from __future__ import annotations

import numpy as np


def mono_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of a(z) b(z); order matters, the factors are matrices."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    r = a.shape[1]
    out = np.zeros((a.shape[0] + b.shape[0] - 1, r, r), dtype=complex)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai @ bj
    return out


def mono_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[0] < b.shape[0]:
        a, b = b, a
    out = a.copy()
    out[: b.shape[0]] += b
    return out


def shift_left_coeffs(a: np.ndarray, d0, c0) -> np.ndarray:
    """z * d0 * a(z) + c0."""
    a = np.asarray(a, dtype=complex)
    d0 = np.asarray(d0, dtype=complex)
    r = a.shape[1]
    out = np.zeros((a.shape[0] + 1, r, r), dtype=complex)
    out[1:] = np.einsum("ij,kjl->kil", d0, a)
    out[0] += np.asarray(c0, dtype=complex)
    return out


def shift_right_coeffs(a: np.ndarray, d0, c0) -> np.ndarray:
    """z * a(z) * d0 + c0."""
    a = np.asarray(a, dtype=complex)
    d0 = np.asarray(d0, dtype=complex)
    r = a.shape[1]
    out = np.zeros((a.shape[0] + 1, r, r), dtype=complex)
    out[1:] = np.einsum("kij,jl->kil", a, d0)
    out[0] += np.asarray(c0, dtype=complex)
    return out


def composite_coeffs(a: np.ndarray, d0, b: np.ndarray, c0) -> np.ndarray:
    """z * a(z) * d0 * b(z) + c0."""
    a = np.asarray(a, dtype=complex)
    ad0 = np.einsum("kij,jl->kil", a, np.asarray(d0, dtype=complex))
    prod = mono_mul(ad0, b)
    r = a.shape[1]
    out = np.zeros((prod.shape[0] + 1, r, r), dtype=complex)
    out[1:] = prod
    out[0] += np.asarray(c0, dtype=complex)
    return out
