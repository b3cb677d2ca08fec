"""In-memory span tracer for the traced benchmark run.

While a traced pass runs, each public function of a matpencil module is
replaced, in the namespace its callers look it up in, by a wrapper that
records a span: name, start, end, parent span, and one optional number taken
from the call (bytes produced, points checked).  Nothing under ``src/``
changes; the patches are undone when the pass ends.  Spans stay in memory and
are written out, and reduced to per-layer metrics, after the timed window.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

from matpencil import (constructions, eigensolve, experiments, fixtures, jsonio, mandelbrot,
                       matpoly, oracle, pencil)

_BUILDERS = ("frobenius_triple", "lagrange_triple", "chebyshev_triple", "scalar_shift_left",
             "scalar_shift_right", "product", "add_lower_degree", "composite")


def _eigen_name(args, kwargs):
    return "eigensolve.qz" if kwargs.get("backend") == "qz" else "eigensolve.generalized_eigen"


def _pencil_bytes(args, kwargs, out):
    p = args[0] if args else kwargs["p"]
    return p.D.nbytes + p.A.nbytes


def _triple_bytes(args, kwargs, out):
    t = out[0] if isinstance(out, tuple) else out
    return t.X.nbytes + t.Y.nbytes + t.pencil.D.nbytes + t.pencil.A.nbytes


def _matrix_bytes(args, kwargs, out):
    return out.entries.nbytes + out.triple_X.nbytes + out.triple_Y.nbytes


def _inverse_bytes(args, kwargs, out):
    return out.inverse.nbytes + out.first_col.nbytes + out.last_row.nbytes


# (namespace the caller looks the name up in, attribute, span name, extra)
PATCHES = [
    (experiments, "generalized_eigen", _eigen_name, _pencil_bytes),
    (eigensolve, "generalized_eigen", _eigen_name, _pencil_bytes),
    *[(mod, "pivot_condition", "pencil.pivot_condition", None)
      for mod in (pencil, constructions, eigensolve)],
    *[(mod, "verify_triple", "pencil.verify_triple", lambda a, k, out: len(out.points))
      for mod in (pencil, constructions)],
    *[(mod, "resolvent_eval", "pencil.resolvent_eval", None) for mod in (pencil, constructions)],
    (oracle, "det_equality", "oracle.det_equality", lambda a, k, out: out.points),
    *[(mod, "eval_at", "matpoly.eval_at", None)
      for mod in (matpoly, pencil, constructions, oracle, jsonio, eigensolve)],
    *[(constructions, name, "constructions.build", _triple_bytes) for name in _BUILDERS],
    (experiments, "frobenius_triple", "constructions.build", _triple_bytes),
    (experiments, "composite", "constructions.build", _triple_bytes),
    *[(jsonio._LEAVES, key, "constructions.build", _triple_bytes) for key in jsonio._LEAVES],
    (jsonio, "build_expression", "jsonio.build_expression", None),
    (experiments, "run_family", "experiments.run_family", None),
    (experiments, "sigma_ratio", "experiments.sigma_ratio", None),
    (fixtures, "family_eval", "experiments.family_eval", None),
    (mandelbrot, "mandelbrot_matrix", "mandelbrot.mandelbrot_matrix", _matrix_bytes),
    (mandelbrot, "inverse_structure", "mandelbrot.inverse_structure", _inverse_bytes),
    (mandelbrot, "charpoly_identity", "mandelbrot.charpoly_identity", None),
    (mandelbrot, "hessenberg_det", "exact.hessenberg_det", None),
]


def _get(where, attr):
    return where[attr] if isinstance(where, dict) else getattr(where, attr)


def _set(where, attr, value):
    if isinstance(where, dict):
        where[attr] = value
    else:
        setattr(where, attr, value)


class Tracer:
    """Collects spans [name, start, end, parent index, extra] per traced pass."""

    def __init__(self):
        self.passes = []  # (wall seconds, spans) per traced pass
        self._spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, extra):
        spans, stack = self._spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, out)
            return out

        return traced

    def run(self, fn):
        """Run fn() with every patch installed; record its spans and wall time."""
        self._spans.clear()
        for where, attr, name, extra in PATCHES:
            original = _get(where, attr)
            self._saved.append((where, attr, original))
            _set(where, attr, self._wrap(original, name, extra))
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = time.perf_counter() - t0
            while self._saved:
                _set(*self._saved.pop())
        self.passes.append((wall, [[s[0], s[1] - t0, s[2] - t0, s[3], s[4]]
                                   for s in self._spans]))
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span: pass, name, start, end (s from pass start),
        parent index within the pass, extra."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (_, spans) in enumerate(self.passes):
                for s in spans:
                    fh.write(json.dumps([i] + s) + "\n")

    def layer_metrics(self, overhead_s: float) -> dict:
        """Per-pass means of the per-layer metrics over the traced passes;
        overhead_s is traced minus untraced wall_s."""
        tot = defaultdict(float)
        for wall, spans in self.passes:
            child = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    child[parent] += end - start
            for i, (name, start, end, parent, extra) in enumerate(spans):
                dur = end - start
                up = spans[parent][0] if parent >= 0 else None
                tot[name + ".calls"] += 1
                tot[name + ".self_s"] += dur - child[i]
                tot[name + ".child_s"] += child[i]
                tot[name + ".extra"] += extra
                if parent < 0:
                    tot["covered_s"] += dur
                if name == "pencil.pivot_condition" and up == "eigensolve.generalized_eigen":
                    tot["shift_select_s"] += dur
                    tot["shift_draws"] += 1
                if name == "pencil.pivot_condition" and up == "pencil.verify_triple":
                    tot["verify_pivots"] += 1
            tot["wall_s"] += wall
        n = len(self.passes)
        g = defaultdict(float, {k: v / n for k, v in tot.items()})
        # verify_triple tests one sample draw per pivot_condition call, plus one
        # pivot_condition on a(z) per accepted point.
        accepted = g["pencil.verify_triple.extra"]
        draws = g["verify_pivots"] - accepted
        return {
            "eigensolve.reduce_s": (g["eigensolve.generalized_eigen.self_s"], "s"),
            "eigensolve.qz_s": (g["eigensolve.qz.self_s"], "s"),
            "eigensolve.shift_select_s": (g["shift_select_s"], "s"),
            "eigensolve.shift_draws": (g["shift_draws"], "count"),
            "eigensolve.pencil_bytes": (g["eigensolve.generalized_eigen.extra"]
                                        + g["eigensolve.qz.extra"], "bytes"),
            "pencil.pivot_condition.calls": (g["pencil.pivot_condition.calls"], "count"),
            "pencil.pivot_condition.self_s": (g["pencil.pivot_condition.self_s"], "s"),
            "pencil.verify_triple.calls": (g["pencil.verify_triple.calls"], "count"),
            "pencil.verify_triple.self_s": (g["pencil.verify_triple.self_s"], "s"),
            "pencil.resolvent_eval.self_s": (g["pencil.resolvent_eval.self_s"], "s"),
            "pencil.sample_accept_ratio": (accepted / draws if draws else 0.0, "1"),
            "oracle.det_equality.calls": (g["oracle.det_equality.calls"], "count"),
            "oracle.det_equality.self_s": (g["oracle.det_equality.self_s"], "s"),
            "oracle.det_equality.points": (g["oracle.det_equality.extra"], "count"),
            "matpoly.eval_at.calls": (g["matpoly.eval_at.calls"], "count"),
            "matpoly.eval_at.self_s": (g["matpoly.eval_at.self_s"], "s"),
            "constructions.build.calls": (g["constructions.build.calls"], "count"),
            "constructions.build.self_s": (g["constructions.build.self_s"], "s"),
            "constructions.build.child_s": (g["constructions.build.child_s"], "s"),
            "constructions.out_bytes": (g["constructions.build.extra"], "bytes"),
            "jsonio.build_expression.calls": (g["jsonio.build_expression.calls"], "count"),
            "jsonio.build_expression.self_s": (g["jsonio.build_expression.self_s"], "s"),
            "experiments.run_family.self_s": (g["experiments.run_family.self_s"], "s"),
            "experiments.residual.calls": (g["experiments.sigma_ratio.calls"], "count"),
            "experiments.residual.self_s": (g["experiments.sigma_ratio.self_s"]
                                            + g["experiments.family_eval.self_s"], "s"),
            "mandelbrot.mandelbrot_matrix.self_s": (g["mandelbrot.mandelbrot_matrix.self_s"], "s"),
            "mandelbrot.inverse_structure.self_s": (g["mandelbrot.inverse_structure.self_s"], "s"),
            "mandelbrot.out_bytes": (g["mandelbrot.mandelbrot_matrix.extra"]
                                     + g["mandelbrot.inverse_structure.extra"], "bytes"),
            "mandelbrot.charpoly_identity.self_s": (g["mandelbrot.charpoly_identity.self_s"], "s"),
            "exact.hessenberg_det.calls": (g["exact.hessenberg_det.calls"], "count"),
            "exact.hessenberg_det.self_s": (g["exact.hessenberg_det.self_s"], "s"),
            "trace.overhead_s": (overhead_s, "s"),
            "trace.coverage": (g["covered_s"] / g["wall_s"], "1"),
        }
