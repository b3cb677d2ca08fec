"""The benchmark's tracer patches matpencil names where their callers look
them up (bench/spans.py, PATCHES), and its workloads read the library's
outputs (bench/workloads.py).  A cleanup that drops one of those names, or
changes what the workloads read, must fail here, not first in the
benchmark's own runs."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import matpencil as mp
from matpencil.mandelbrot import mandelbrot_dim

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the workloads' dataclasses look it up
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")
CASES = [(where, attr) for where, attr, _, _ in spans.PATCHES]


def _label(where, attr):
    return f"{getattr(where, '__name__', 'jsonio._LEAVES')}.{attr}"


@pytest.mark.parametrize("where, attr", CASES, ids=[_label(*case) for case in CASES])
def test_traced_name_resolves(where, attr):
    assert callable(spans._get(where, attr))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_pass_of_each_workload_passes_traced(name):
    # the warm-up pass the benchmark runs at set-up, here under the tracer
    tracer = spans.Tracer()
    ops = tracer.run(lambda: workloads.WORKLOADS[name](seed=1).run_pass(reduced=True))
    assert ops and all(op.ok and op.error is None for op in ops), ops
    assert spans._get(mp.pencil, "verify_triple") is mp.verify_triple  # patches undone
    (_, recorded), = tracer.passes
    assert recorded


def test_full_mandelbrot_pass_passes():
    # the benchmark's timed pass: levels 12-14 and the level-11 charpoly identity
    tracer = spans.Tracer()
    ops = tracer.run(lambda: workloads.Mandelbrot(seed=0).run_pass())
    assert [op.name for op in ops] == ["level_12", "level_13", "level_14", "charpoly_11"]
    assert all(op.ok and op.error is None for op in ops), ops
    # one exact determinant per point of -3..3, each seen by the tracer
    metrics = tracer.layer_metrics(0.0)
    assert metrics["exact.hessenberg_det.calls"] == (7, "count")
    assert metrics["exact.hessenberg_det.self_s"][0] > 0


def test_every_unused_import_in_src_is_patched_by_the_tracer():
    # a `# noqa: F401` import is kept only for a PATCHES entry to replace;
    # it must go when that entry goes
    patched = {(getattr(where, "__name__", None), attr) for where, attr, _, _ in spans.PATCHES}
    shims = []
    for path in sorted(Path(mp.__file__).parent.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and any(
                    "noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                shims += [(f"matpencil.{path.stem}", alias.asname or alias.name)
                          for alias in node.names]
    assert shims
    assert [shim for shim in shims if shim not in patched] == []


def test_tracer_reads_the_size_of_the_mandelbrot_outputs():
    n = 14
    dim = mandelbrot_dim(n)
    m, rep = mp.mandelbrot_matrix(n), mp.inverse_structure(n)
    assert spans._matrix_bytes((n,), {}, m) == 9 * (2 * dim - 1) + 2 * dim
    assert spans._inverse_bytes((n,), {}, rep) == rep.inverse.nbytes + 2 * dim
    # the outputs are held as their nonzeros, not as dense dim x dim arrays
    assert spans._matrix_bytes((n,), {}, m) + spans._inverse_bytes((n,), {}, rep) < 2 ** 20
