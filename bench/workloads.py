"""The three benchmark workloads: seeded inputs, one pass, and its gates.

Each workload generates a fixed input set from the workload seed once, at
set-up.  A pass runs that whole set and gates every operation with the bounds
of the acceptance suite, so every pass does identical work and is timed as a
time to a verified result.  The library is called through module attributes
(``constructions.product``, ``oracle.det_equality`` ...) so the tracer's
patches on those names see the benchmark's own calls too.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from matpencil import (constructions, eigensolve, experiments, fixtures, jsonio,
                       mandelbrot, oracle, pencil)
from matpencil.errors import DegenerateInputError, SpectrumError, VerificationError
from matpencil.matpoly import MatPoly

#: errors by which the library refuses an input; they fail the operation only
LIBRARY_ERRORS = (SpectrumError, DegenerateInputError, VerificationError)

FAMILY_RESIDUAL_TOL = 1e-10   # acceptance criterion 5
CLOSURE_TOL = 1e-8            # acceptance criterion 3

# Independent random streams drawn from one workload seed.
_STREAM_FAMILY_SHIFTS, _STREAM_QZ, _STREAM_CLOSURE_INPUTS, _STREAM_CLOSURE_POINTS = range(4)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng((seed, stream))


@dataclass
class Op:
    """One gated operation: its latency, whether it passed, and its worst
    relative deviation (0 for exact checks)."""

    name: str
    seconds: float
    ok: bool
    deviation: float = 0.0
    error: str | None = None


def _timed(name: str, fn) -> Op:
    """Run fn() -> (ok, deviation); a library refusal fails the operation."""
    t0 = time.perf_counter()
    try:
        ok, dev = fn()
        return Op(name, time.perf_counter() - t0, bool(ok), float(dev))
    except LIBRARY_ERRORS as exc:
        return Op(name, time.perf_counter() - t0, False, 0.0, f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------------
# family: the solver's workload
# ----------------------------------------------------------------------------

class Family:
    """``run_family(8)`` (shift-and-invert, N = 4 .. 1020) and the k = 7
    pencil through QZ, both scored by residuals through the recurrence."""

    K_MAX, K_QZ = 8, 7
    WARM_K_MAX, WARM_K_QZ = 6, 5

    def __init__(self, seed: int):
        self.seed = seed

    def run_pass(self, reduced: bool = False) -> list[Op]:
        k_max, k_qz = (self.WARM_K_MAX, self.WARM_K_QZ) if reduced else (self.K_MAX, self.K_QZ)
        return [_timed("run_family", lambda: self._shift_invert(k_max)),
                _timed("qz", lambda: self._qz(k_qz))]

    def _shift_invert(self, k_max: int):
        reports = experiments.run_family(k_max, rng=_rng(self.seed, _STREAM_FAMILY_SHIFTS))
        worst = max(rep.max_residual for rep in reports)
        ok = len(reports) == k_max and all(
            rep.n_finite + rep.n_infinite == rep.dim for rep in reports)
        return ok and worst <= FAMILY_RESIDUAL_TOL, worst

    def _qz(self, k: int):
        triple = experiments.family_triple(k)[-1]
        eig = eigensolve.generalized_eigen(triple.pencil, rng=_rng(self.seed, _STREAM_QZ),
                                           backend="qz")
        res = [experiments.sigma_ratio(fixtures.family_eval(k, z)) for z in eig.finite]
        worst = max(res)
        return eig.total == triple.N and worst <= FAMILY_RESIDUAL_TOL, worst


# ----------------------------------------------------------------------------
# closure: the verifier's workload
# ----------------------------------------------------------------------------

# The benchmark draws its inputs and expands its reference coefficients with
# its own code, so the inputs stay the same when the library changes.
def _rand_mat(rng, r):
    return rng.uniform(-1, 1, (r, r)) + 1j * rng.uniform(-1, 1, (r, r))


def _rand_coeffs(rng, r, s, monic=False):
    data = np.stack([_rand_mat(rng, r) for _ in range(s + 1)])
    if monic:
        data[-1] = np.eye(r)
    return data


def _mono_mul(a, b):
    out = np.zeros((a.shape[0] + b.shape[0] - 1,) + a.shape[1:], dtype=complex)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai @ bj
    return out


def _shifted(a, d0, c0, left: bool):
    """Coefficients of z d0 a(z) + c0 (left) or z a(z) d0 + c0."""
    out = np.zeros((a.shape[0] + 1,) + a.shape[1:], dtype=complex)
    out[1:] = [d0 @ ak if left else ak @ d0 for ak in a]
    out[0] += c0
    return out


def _json_matrix(mat):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(mat, dtype=complex)]


def _json_monomial(data):
    return {"basis": "monomial", "dim": data.shape[1], "grade": data.shape[0] - 1,
            "data": [_json_matrix(m) for m in data]}


@dataclass(eq=False)
class ClosureRound:
    """Inputs of one round, one instance per constructor (criterion 3)."""

    a: MatPoly
    b: MatPoly
    c: MatPoly
    d0: np.ndarray
    c0: np.ndarray
    variant: str
    lag: MatPoly
    cheb: MatPoly
    ref_left: MatPoly
    ref_right: MatPoly
    ref_product: MatPoly
    ref_add: MatPoly
    composite_expr: str  # what `matpencil verify --expr` reads


def _closure_round(rng, i: int) -> ClosureRound:
    # The shape of round i (sizes, grades, monic flags, product layout) cycles
    # through every combination the acceptance test draws at random, so each
    # seed runs the same mix of sizes and only the entries depend on the seed.
    r, s, t = 1 + i % 3, 1 + i // 3 % 3, 1 + i // 9 % 3
    a = _rand_coeffs(rng, r, s, monic=i // 27 % 2 == 1)
    d0, c0 = _rand_mat(rng, r), _rand_mat(rng, r)
    b = _rand_coeffs(rng, r, t, monic=i // 54 % 2 == 1)
    c = _rand_coeffs(rng, r, i // 27 % s)
    while True:
        nodes = rng.uniform(-1, 1, s + 1) + 1j * rng.uniform(-1, 1, s + 1)
        if min(abs(x - y) for k, x in enumerate(nodes) for y in nodes[k + 1:]) >= 0.3:
            break
    weights = np.array([1.0 / np.prod(x - np.delete(nodes, k)) for k, x in enumerate(nodes)])
    added = a.copy()
    added[: c.shape[0]] += c
    expr = {"op": "composite", "a": {"frobenius": _json_monomial(a)},
            "b": {"frobenius": _json_monomial(b)},
            "d0": _json_matrix(d0), "c0": _json_matrix(c0)}
    mono = MatPoly.monomial_poly
    return ClosureRound(
        mono(a), mono(b), mono(c), d0, c0, "F1" if i % 2 == 0 else "F2",
        MatPoly.lagrange_poly(nodes, weights, _rand_coeffs(rng, r, s)),
        MatPoly.chebyshev_poly(_rand_coeffs(rng, r, s)),
        mono(_shifted(a, d0, c0, left=True)), mono(_shifted(a, d0, c0, left=False)),
        mono(_mono_mul(a, b)), mono(added), json.dumps(expr))


# Each constructor op returns (triple, polynomial to check it against); the ops
# after the companion reuse its triple, as the acceptance test does.
def _companion(rd, st):
    st["ta"] = constructions.frobenius_triple(rd.a)
    return st["ta"], rd.a


def _shift_left(rd, st):
    return constructions.scalar_shift_left(st["ta"], rd.d0, rd.c0), rd.ref_left


def _shift_right(rd, st):
    return constructions.scalar_shift_right(st["ta"], rd.d0, rd.c0), rd.ref_right


def _product(rd, st):
    tb = constructions.frobenius_triple(rd.b)
    return constructions.product(st["ta"], tb, rd.variant), rd.ref_product


def _add_lower_degree(rd, st):
    return constructions.add_lower_degree(st["ta"], rd.c), rd.ref_add


def _composite_expr(rd, st):
    return jsonio.build_expression(json.loads(rd.composite_expr))


def _lagrange(rd, st):
    return constructions.lagrange_triple(rd.lag), rd.lag


def _chebyshev(rd, st):
    return constructions.chebyshev_triple(rd.cheb), rd.cheb


_CLOSURE_OPS = (("companion", _companion), ("shift_left", _shift_left),
                ("shift_right", _shift_right), ("product", _product),
                ("add_lower_degree", _add_lower_degree), ("composite", _composite_expr),
                ("lagrange", _lagrange), ("chebyshev", _chebyshev))
_NEEDS_COMPANION = {"shift_left", "shift_right", "product", "add_lower_degree"}


class Closure:
    """200 rounds x 8 constructors of random complex instances, each built and
    checked by ``det_equality`` and ``verify_triple(n_points=5)``."""

    ROUNDS = 200

    def __init__(self, seed: int):
        self.seed = seed
        rng = _rng(seed, _STREAM_CLOSURE_INPUTS)
        self.rounds = [_closure_round(rng, i) for i in range(self.ROUNDS)]

    def run_pass(self, reduced: bool = False) -> list[Op]:
        points = _rng(self.seed, _STREAM_CLOSURE_POINTS)
        ops = []
        for rd in self.rounds[:1] if reduced else self.rounds:
            st = {}
            for name, build in _CLOSURE_OPS:
                if name in _NEEDS_COMPANION and "ta" not in st:
                    ops.append(Op(name, 0.0, False, 0.0, "companion build failed"))
                    continue
                ops.append(_timed(name, lambda: self._check(build(rd, st), points)))
        return ops

    @staticmethod
    def _check(built, rng):
        triple, poly = built
        eq = oracle.det_equality(triple.pencil, poly, tol=CLOSURE_TOL)
        if not eq.ok:
            return False, eq.max_deviation
        rep = pencil.verify_triple(triple, poly, n_points=5, tol=CLOSURE_TOL, rng=rng)
        res = rep.resolvent_deviation
        if res is None:
            return False, eq.max_deviation
        return res <= CLOSURE_TOL, max(eq.max_deviation, res)


# ----------------------------------------------------------------------------
# mandelbrot: the exact-integer workload
# ----------------------------------------------------------------------------

class Mandelbrot:
    """M_n and its exact inverse at levels 12..14, and the characteristic
    polynomial identity at level 11.  Exact and seed-independent: the family
    has no free parameter, so every seed runs the same inputs."""

    LEVELS, CHARPOLY_LEVEL = (12, 13, 14), 11
    WARM_LEVELS, WARM_CHARPOLY_LEVEL = (10,), 8
    POINTS = range(-3, 4)

    def __init__(self, seed: int):
        self.seed = seed

    def run_pass(self, reduced: bool = False) -> list[Op]:
        levels = self.WARM_LEVELS if reduced else self.LEVELS
        top = self.WARM_CHARPOLY_LEVEL if reduced else self.CHARPOLY_LEVEL
        ops = [_timed(f"level_{n}", lambda n=n: self._level(n)) for n in levels]
        ops.append(_timed(f"charpoly_{top}", lambda: (
            mandelbrot.charpoly_identity(top, self.POINTS), 0.0)))
        return ops

    @staticmethod
    def _level(n: int):
        m = mandelbrot.mandelbrot_matrix(n)
        dim = 2 ** (n - 1) - 1
        ok = m.dim == dim and m.entries.shape == (dim, dim)
        ok = ok and m.entries.min() >= -1 and m.entries.max() <= 0
        del m  # keep one level-n matrix alive at a time
        try:
            rep = mandelbrot.inverse_structure(n)
        except AssertionError:  # the library's own exactness self-check
            return False, 0.0
        ok = ok and rep.inverse.shape == (dim, dim) and int(rep.inverse[dim - 1, 0]) == -1
        return ok and rep.corner_value == -1 and rep.zero_block_ok and rep.height1, 0.0


WORKLOADS = {"family": Family, "closure": Closure, "mandelbrot": Mandelbrot}
