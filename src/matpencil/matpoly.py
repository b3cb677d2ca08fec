"""Square matrix polynomials in monomial, barycentric Lagrange, or Chebyshev form.

A MatPoly is the object whose eigenvalues (roots of det a(z)) everything else
chases.  Operations here are pure: evaluation and entry-height metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, StructuralError

MONOMIAL = "monomial"
LAGRANGE = "lagrange"
CHEBYSHEV = "chebyshev"


@dataclass(frozen=True, eq=False)
class NonzeroMatrix:
    """A read-only matrix held as its nonzeros: the sorted flat keys
    row * ncols + col (int64) and their values, of any numeric dtype.

    `toarray()`, and `np.asarray` through `__array__`, build the dense
    C-contiguous array; `min()`, `max()` and `m[i, j]` read the nonzeros and
    count the missing entries as zeros.
    """

    shape: tuple
    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.keys.flags.writeable = self.values.flags.writeable = False

    @classmethod
    def from_dense(cls, arr: np.ndarray) -> NonzeroMatrix:
        """The nonzeros of a dense 2-d array; its zeros, -0.0 among them, are
        not stored."""
        keys = np.flatnonzero(arr)
        return cls(arr.shape, keys, arr.reshape(-1)[keys])

    @classmethod
    def summed(cls, shape: tuple, keys: np.ndarray, values: np.ndarray) -> NonzeroMatrix:
        """The values summed per key in their own dtype, zero sums not stored; the
        stable sort (timsort for int64) merges already sorted runs in near-linear time."""
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        starts = np.ones(len(keys), dtype=bool)  # where runs of equal keys start
        np.not_equal(keys[1:], keys[:-1], out=starts[1:])  # in place: no temporary mask
        starts = np.flatnonzero(starts)
        keys, values = keys[starts], np.add.reduceat(values, starts, dtype=values.dtype)
        stored = values != 0
        return cls(shape, keys[stored], values[stored])

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.values.nbytes

    def astype(self, dtype, copy: bool = True) -> NonzeroMatrix:
        """The same nonzeros with their values in `dtype`; with copy=False,
        self when they already are."""
        values = self.values.astype(dtype, copy=copy)
        return self if values is self.values else NonzeroMatrix(self.shape, self.keys, values)

    def min(self):
        return self.values.min() if len(self.keys) == self.size else self.values.min(initial=0)

    def max(self):
        return self.values.max() if len(self.keys) == self.size else self.values.max(initial=0)

    def __getitem__(self, index):
        (i, j), (rows, cols) = index, self.shape
        key = range(rows)[i] * cols + range(cols)[j]  # IndexError when out of range
        at = np.searchsorted(self.keys, key)
        found = at < len(self.keys) and self.keys[at] == key
        return self.values[at] if found else self.dtype.type(0)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.dtype)
        out.reshape(-1)[self.keys] = self.values
        return out

    def __array__(self, dtype=None, copy=None):  # numpy casts to dtype itself
        if copy is False:
            raise ValueError("a NonzeroMatrix has no dense array to share; it must be copied")
        return self.toarray()


def _entries(mat) -> tuple:
    """Rows, columns and values of the nonzeros (a held matrix's stored entries), row-major."""
    if isinstance(mat, NonzeroMatrix):
        return *np.divmod(mat.keys, mat.shape[1]), mat.values
    rows, cols = np.nonzero(mat)
    return rows, cols, mat[rows, cols]


def _is_identity(mat) -> bool:
    """mat is exactly the identity; a NonzeroMatrix is read off its nonzeros,
    which hold no zero (a stored zero reads as not the identity)."""
    if isinstance(mat, NonzeroMatrix):
        n = mat.shape[0]
        return np.array_equal(mat.keys, np.arange(n) * (n + 1)) and bool(np.all(mat.values == 1))
    return np.count_nonzero(mat) == mat.shape[0] and bool(np.all(np.diagonal(mat) == 1))


def _common(*arrays) -> list:
    """The inputs in one dtype, np.result_type(float, *inputs): float64 for
    real or integer data, complex128 once any input is complex.  An input
    already in that dtype is returned without a copy.  A `NonzeroMatrix`
    keeps its form: only its values are cast."""
    arrays = [a if isinstance(a, NonzeroMatrix) else np.asarray(a) for a in arrays]
    dtype = np.result_type(float, *arrays)  # reads a NonzeroMatrix's dtype attribute
    return [a.astype(dtype, copy=False) for a in arrays]


def barycentric_weights(nodes) -> np.ndarray:
    """Weights beta_k = 1 / prod_{j != k} (tau_k - tau_j) for given nodes, in
    their `_common` dtype: real nodes give float64 weights.  StructuralError
    when two nodes are equal."""
    nodes = _common(nodes)[0].ravel()
    if len(set(nodes.tolist())) != nodes.size:
        raise StructuralError("lagrange nodes must be pairwise distinct")
    w = np.empty_like(nodes)
    for k in range(nodes.size):
        w[k] = 1.0 / np.prod(nodes[k] - np.delete(nodes, k))
    return w


@dataclass(eq=False)
class MatPoly:
    """An r x r matrix polynomial of grade s in the basis `kind`.

    data holds s+1 matrices: coefficients (monomial alpha_k / Chebyshev b_k,
    k = 0..s) or node samples a(tau_k) in the Lagrange case, where `nodes`
    are the distinct interpolation nodes tau_k and `weights` the barycentric
    weights beta_k of the partial fraction 1/w(z) = sum beta_k / (z - tau_k),
    w(z) = prod (z - tau_k).  dim and grade are read off data's shape.
    """

    kind: str
    data: np.ndarray
    nodes: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.data = _as_stack(self.data)
        if self.kind not in (MONOMIAL, LAGRANGE, CHEBYSHEV):
            raise StructuralError(f"unknown basis kind {self.kind!r}")
        if self.kind != LAGRANGE:
            if self.nodes is not None or self.weights is not None:
                raise StructuralError(f"{self.kind} basis takes no nodes/weights")
            return
        if self.nodes is None or self.weights is None:
            raise StructuralError("lagrange basis needs nodes and weights")
        self.nodes, self.weights = (a.ravel() for a in _common(self.nodes, self.weights))
        if self.nodes.size != self.weights.size:
            raise StructuralError("node/weight count mismatch")
        if len(set(self.nodes.tolist())) != self.nodes.size:
            raise StructuralError("lagrange nodes must be pairwise distinct")
        if self.nodes.size != len(self.data):
            raise StructuralError("lagrange node count must be grade + 1")

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def grade(self) -> int:
        return len(self.data) - 1

    def eval(self, z) -> np.ndarray:
        return eval_at(self, z)

    @classmethod
    def monomial_poly(cls, coeffs) -> "MatPoly":
        return cls(MONOMIAL, coeffs)

    @classmethod
    def chebyshev_poly(cls, coeffs) -> "MatPoly":
        return cls(CHEBYSHEV, coeffs)

    @classmethod
    def lagrange_poly(cls, nodes, weights, samples) -> "MatPoly":
        return cls(LAGRANGE, samples, nodes, weights)


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
    extra = (p.nodes, p.weights) if p.kind == LAGRANGE else ()
    acc = np.zeros(z.shape + (p.dim, p.dim), dtype=np.result_type(float, z, p.data, *extra))
    if p.kind == MONOMIAL:
        for coeff in p.data[::-1]:
            acc = acc * zz + coeff
        return acc
    if p.kind == CHEBYSHEV:
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
    diffs = z[..., None] - p.nodes
    hit = diffs == 0
    w = np.prod(diffs, axis=-1)
    diffs[hit] = 1.0
    coef = p.weights / diffs
    for k, sample in enumerate(p.data):
        acc += coef[..., k, None, None] * sample
    acc *= w[..., None, None]
    at_node = hit.any(axis=-1)
    acc[at_node] = p.data[hit.argmax(axis=-1)[at_node]]
    return acc


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
    """Height, t_metric and the two height-1 flags of a matrix, read from one
    float64 magnitude array; an entry beyond float64's range raises
    ContractError.  A `NonzeroMatrix` is read from its stored values, and its
    missing entries count as zeros.  A NaN entry makes the height NaN and is
    left out of t_metric; an entry that rounds to 0.0 in float64 counts as
    zero for t_metric only."""
    held = isinstance(mat, NonzeroMatrix)
    arr = mat.values if held else np.asarray(mat)
    size = mat.size if held else arr.size
    # counted before the magnitudes exist, so one mask at most lives beside them
    zero_or_minus_one = (size - arr.size + int(np.count_nonzero(arr == 0))
                         + int(np.count_nonzero(arr == -1)))
    flags = zero_or_minus_one == size, zero_or_minus_one + int(np.count_nonzero(arr == 1)) == size
    try:  # signed integers are widened first: np.abs wraps int8 -128 and int64 min
        mags = np.abs(arr.astype(float) if arr.dtype.kind == "i" else arr).astype(float, copy=False)
    except OverflowError:
        raise ContractError("matrix entries must lie within float64's range") from None
    height = float(mags.max(initial=0.0))
    positive = mags > 0  # NaN is not
    t_metric = float(mags.min(where=positive, initial=np.inf)) / height if positive.any() else None
    return HeightReport(height, t_metric, *flags)
