import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported_not_internal_error(tmp_path):
    # on failure hypothesis imports libcst, which warns at import time; the
    # suite's warnings-as-errors setting must not turn that into an abort
    (tmp_path / "test_two.py").write_text(_TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
