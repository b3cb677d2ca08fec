"""Square matrix polynomials in monomial, barycentric Lagrange, or Chebyshev form.

A MatPoly is the object whose eigenvalues (roots of det a(z)) everything else
chases.  Operations here are pure: evaluation, roots-of-unity interpolation,
and entry-height metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError

MONOMIAL = "monomial"
LAGRANGE = "lagrange"
CHEBYSHEV = "chebyshev"


def _common(*arrays) -> list[np.ndarray]:
    """The inputs in one dtype, np.result_type(float, *inputs): float64 for
    real or integer data, complex128 once any input is complex.  An input
    already in that dtype is returned without a copy."""
    arrays = [np.asarray(a) for a in arrays]
    dtype = np.result_type(float, *arrays)
    return [a.astype(dtype, copy=False) for a in arrays]


@dataclass(eq=False)
class BasisSpec:
    """Which basis a MatPoly's data lives in.

    For the Lagrange kind, `nodes` are the distinct interpolation nodes tau_k
    and `weights` the barycentric weights beta_k of the partial fraction
    1/w(z) = sum beta_k / (z - tau_k), w(z) = prod (z - tau_k).
    """

    kind: str
    nodes: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (MONOMIAL, LAGRANGE, CHEBYSHEV):
            raise StructuralError(f"unknown basis kind {self.kind!r}")
        if self.kind == LAGRANGE:
            if self.nodes is None or self.weights is None:
                raise StructuralError("lagrange basis needs nodes and weights")
            self.nodes, self.weights = (a.ravel() for a in _common(self.nodes, self.weights))
            if self.nodes.size != self.weights.size:
                raise StructuralError("node/weight count mismatch")
            if len(set(self.nodes.tolist())) != self.nodes.size:
                raise StructuralError("lagrange nodes must be pairwise distinct")
        elif self.nodes is not None or self.weights is not None:
            raise StructuralError(f"{self.kind} basis takes no nodes/weights")

    @classmethod
    def monomial(cls) -> "BasisSpec":
        return cls(MONOMIAL)

    @classmethod
    def chebyshev(cls) -> "BasisSpec":
        return cls(CHEBYSHEV)

    @classmethod
    def lagrange(cls, nodes, weights) -> "BasisSpec":
        return cls(LAGRANGE, nodes=nodes, weights=weights)


def barycentric_weights(nodes) -> np.ndarray:
    """Weights beta_k = 1 / prod_{j != k} (tau_k - tau_j) for given nodes."""
    nodes = np.asarray(nodes, dtype=complex).ravel()
    n = nodes.size
    w = np.ones(n, dtype=complex)
    for k in range(n):
        diff = nodes[k] - np.delete(nodes, k)
        w[k] = 1.0 / np.prod(diff)
    return w


@dataclass(eq=False)
class MatPoly:
    """An r x r matrix polynomial of grade s.

    data holds s+1 matrices: coefficients (monomial alpha_k / Chebyshev b_k,
    k = 0..s) or node samples a(tau_k) in the Lagrange case.
    """

    basis: BasisSpec
    dim: int
    grade: int
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3 or self.data.shape[1:] != (self.dim, self.dim):
            raise StructuralError(
                f"data must be a stack of {self.dim}x{self.dim} matrices, got {self.data.shape}"
            )
        if self.data.shape[0] != self.grade + 1:
            raise StructuralError(
                f"grade {self.grade} needs {self.grade + 1} matrices, got {self.data.shape[0]}"
            )
        if self.basis.kind == LAGRANGE and self.basis.nodes.size != self.grade + 1:
            raise StructuralError("lagrange node count must be grade + 1")

    def eval(self, z) -> np.ndarray:
        return eval_at(self, z)

    @classmethod
    def monomial_poly(cls, coeffs) -> "MatPoly":
        coeffs = _as_stack(coeffs)
        return cls(BasisSpec.monomial(), coeffs.shape[1], coeffs.shape[0] - 1, coeffs)

    @classmethod
    def chebyshev_poly(cls, coeffs) -> "MatPoly":
        coeffs = _as_stack(coeffs)
        return cls(BasisSpec.chebyshev(), coeffs.shape[1], coeffs.shape[0] - 1, coeffs)

    @classmethod
    def lagrange_poly(cls, nodes, weights, samples) -> "MatPoly":
        samples = _as_stack(samples)
        basis = BasisSpec.lagrange(nodes, weights)
        return cls(basis, samples.shape[1], samples.shape[0] - 1, samples)


@dataclass(eq=False)
class CallablePoly:
    """Duck-typed stand-in for MatPoly: an evaluation rule plus dim/grade.

    Used where a polynomial exists only as a composition (e.g. a product of
    polynomials in different bases) and coefficient data is not wanted.

    fn is called once per evaluation with z as an array (0-d for one point)
    and must return the stack of shape z.shape + (dim, dim); a scalar factor
    broadcasts as z[..., None, None].
    """

    dim: int
    grade: int
    fn: object

    def eval(self, z) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(z)))


def _as_stack(mats) -> np.ndarray:
    arr = np.asarray(mats)
    if arr.ndim == 1:  # scalar polynomial given as a flat coefficient list
        arr = arr.reshape(-1, 1, 1)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise StructuralError(f"expected a stack of square matrices, got shape {arr.shape}")
    return arr


def eval_at(p, z) -> np.ndarray:
    """Evaluate a (duck-typed) matrix polynomial at z.

    A scalar z gives one dim x dim matrix; an array of points gives the stack
    of shape z.shape + (dim, dim).  The dtype follows `_common` over z, the
    data and, for the Lagrange basis, the nodes and weights: float64 for a
    real polynomial at real points, complex128 once any of them is complex.
    """
    if not isinstance(p, MatPoly):
        return p.eval(z)
    z = np.asarray(z)
    zz = z[..., None, None]
    kind = p.basis.kind
    extra = (p.basis.nodes, p.basis.weights) if kind == LAGRANGE else ()
    acc = np.zeros(z.shape + (p.dim, p.dim), dtype=np.result_type(float, z, p.data, *extra))
    if kind == MONOMIAL:
        for coeff in p.data[::-1]:
            acc = acc * zz + coeff
        return acc
    if kind == CHEBYSHEV:
        # three-term recurrence T_{k+1} = 2 z T_k - T_{k-1}
        acc = acc + p.data[0]
        if p.grade >= 1:
            t_prev, t_cur = 1.0, zz
            acc = acc + t_cur * p.data[1]
            for k in range(2, p.grade + 1):
                t_prev, t_cur = t_cur, 2 * zz * t_cur - t_prev
                acc = acc + t_cur * p.data[k]
        return acc
    # barycentric Lagrange: a(z) = w(z) * sum beta_k a_k / (z - tau_k), and
    # a(tau_k) is the stored sample a_k
    diffs = z[..., None] - p.basis.nodes
    hit = diffs == 0
    w = np.prod(diffs, axis=-1)
    diffs[hit] = 1.0
    coef = p.basis.weights / diffs
    for k, sample in enumerate(p.data):
        acc += coef[..., k, None, None] * sample
    acc *= w[..., None, None]
    at_node = hit.any(axis=-1)
    acc[at_node] = p.data[hit.argmax(axis=-1)[at_node]]
    return acc


def _interp_roots_of_unity(det_at, degree: int) -> np.ndarray:
    """Coefficients (low-to-high) of det_at, a polynomial of degree <= `degree`,
    from its values at the (degree+1)-th roots of unity, where the Vandermonde
    system is unitary up to scaling (a well-conditioned inverse DFT).  det_at
    maps the array of points to the array of their values."""
    # negative angles so the sample vector is the DFT of the coefficient vector
    pts = np.exp(-2j * np.pi * np.arange(degree + 1) / (degree + 1))
    return np.fft.ifft(det_at(pts))


@dataclass
class HeightReport:
    """Entry-magnitude profile of a matrix.

    t_metric is min |nonzero entry| / height, a sensitivity proxy; it is None
    (undefined) for the zero matrix.
    """

    height: float
    t_metric: float | None
    is_bohemian_01: bool
    is_height1_integer: bool


def height_report(mat) -> HeightReport:
    arr = np.asarray(mat)
    mags = np.abs(arr).astype(float)
    height = float(mags.max()) if arr.size else 0.0
    nz = mags[mags > 0]
    t_metric = float(nz.min() / height) if nz.size else None
    zero_or_minus_one = (arr == 0) | (arr == -1)
    return HeightReport(height, t_metric, bool(np.all(zero_or_minus_one)),
                        bool(np.all(zero_or_minus_one | (arr == 1))))
