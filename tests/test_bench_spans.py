"""The benchmark's tracer patches matpencil names where their callers look
them up (bench/spans.py, PATCHES).  A cleanup that drops one of those names
must fail here, not first in the benchmark's traced run."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
CASES = [(where, attr) for where, attr, _, _ in spans.PATCHES]


def _label(where, attr):
    return f"{getattr(where, '__name__', 'jsonio._LEAVES')}.{attr}"


@pytest.mark.parametrize("where, attr", CASES, ids=[_label(*case) for case in CASES])
def test_traced_name_resolves(where, attr):
    assert callable(spans._get(where, attr))
